package ccsvm

import "slices"

// ParkedArenas returns the arenas the Runner holds between Run calls.
func (r *Runner) ParkedArenas() []*Arena {
	s := r.parked()
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.arenas)
}
