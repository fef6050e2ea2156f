// Package util carries no //lint:deterministic: outside the determinism contract the
// analyzer stays silent even for order-sensitive map iteration.
package util

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
