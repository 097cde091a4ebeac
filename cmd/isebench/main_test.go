package main

import (
	"strings"
	"testing"
)

// TestCheckFig: every figure name and "all" pass; an unknown name fails
// with an error that lists the valid names.
func TestCheckFig(t *testing.T) {
	for _, fig := range append([]string{"all"}, figures...) {
		if err := checkFig(fig); err != nil {
			t.Errorf("checkFig(%q) = %v, want nil", fig, err)
		}
	}
	for _, fig := range []string{"nosuch", "obsbench", "dedupbench", ""} {
		err := checkFig(fig)
		if err == nil {
			t.Errorf("checkFig(%q) accepted an unknown figure", fig)
			continue
		}
		for _, name := range figures {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("checkFig(%q) error %q does not name figure %q", fig, err, name)
			}
		}
	}
}
