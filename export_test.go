package ccsvm

import "slices"

// ParkedArenas returns the arenas the Runner holds between Run calls.
func (r *Runner) ParkedArenas() []*Arena {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.arenas)
}
