package ir

// RegSet is a bitset over a function's virtual registers.
type RegSet []uint64

// NewRegSet returns an empty set sized for n registers.
func NewRegSet(n int) RegSet { return make(RegSet, (n+63)/64) }

// Has reports whether r is in the set.
func (s RegSet) Has(r Reg) bool {
	if r < 0 || int(r) >= len(s)*64 {
		return false
	}
	return s[r>>6]&(1<<(uint(r)&63)) != 0
}

// Add inserts r and reports whether the set changed.
func (s RegSet) Add(r Reg) bool {
	if r < 0 {
		return false
	}
	w, m := r>>6, uint64(1)<<(uint(r)&63)
	if s[w]&m != 0 {
		return false
	}
	s[w] |= m
	return true
}

// Remove deletes r from the set.
func (s RegSet) Remove(r Reg) {
	if r < 0 {
		return
	}
	s[r>>6] &^= 1 << (uint(r) & 63)
}

// UnionWith adds all members of t and reports whether the set changed.
func (s RegSet) UnionWith(t RegSet) bool {
	changed := false
	for i := range t {
		if nv := s[i] | t[i]; nv != s[i] {
			s[i] = nv
			changed = true
		}
	}
	return changed
}

// Count returns the number of members.
func (s RegSet) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}
