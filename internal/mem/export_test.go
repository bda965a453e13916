package mem

import "fmt"

// SetDistances overrides the per-bank distances. The slice length must
// match the bank count.
func (l *BankedL2) SetDistances(d []int) error {
	if len(d) != len(l.banks) {
		return fmt.Errorf("mem: %d distances for %d banks", len(d), len(l.banks))
	}
	for i, v := range d {
		if v < 0 {
			return fmt.Errorf("mem: negative distance %d for bank %d", v, i)
		}
	}
	l.distance = append(l.distance[:0], d...)
	return nil
}
