// Package dirclean uses every directive in its documented position; the
// hygiene analyzer must stay silent.
//
//ccsvm:deterministic
package dirclean

// Drain iterates a map whose effects commute.
func Drain(m map[int]int) int {
	total := 0
	//ccsvm:orderinvariant
	for _, v := range m {
		total += v
	}
	for _, v := range m { //ccsvm:orderinvariant // a trailing directive
		total += v
	}
	return total
}
