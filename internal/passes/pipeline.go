package passes

import "isex/internal/ir"

// Options configure the standard pipeline.
type Options struct {
	// NoIfConvert disables if-conversion (for ablation experiments; the
	// paper always if-converts).
	NoIfConvert bool
}

// maxRounds bounds the optimize iterations of Run.
const maxRounds = 8

// Run applies the standard preprocessing pipeline to every function:
// CFG cleanup, if-conversion to SEL operations, then rounds of local
// value numbering, copy coalescing and dead-code elimination until a
// fixpoint (at most maxRounds). The module is re-verified afterwards.
func Run(m *ir.Module, opt Options) error {
	for _, f := range m.Funcs {
		MergeBlocks(f)
		if !opt.NoIfConvert {
			IfConvert(f)
		}
		for r := 0; r < maxRounds; r++ {
			changed := LocalOptimize(f)
			if Coalesce(f) {
				changed = true
			}
			if DeadCodeElim(f) {
				changed = true
			}
			if !changed {
				break
			}
		}
		MergeBlocks(f)
	}
	return ir.VerifyModule(m)
}
