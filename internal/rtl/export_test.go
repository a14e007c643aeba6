package rtl

import "fmt"

// Lane and memory accessors of PackedSim that only the lane-equivalence
// tests in packed_test.go use.

// GetLane returns one lane's value of a signal (0 for unknown names).
func (p *PackedSim) GetLane(name string, lane int) uint64 {
	i := p.design.SignalIndex(name)
	if i < 0 {
		return 0
	}
	return gatherLane(p.vals[p.off[i]:p.off[i]+p.design.Signals[i].Width], lane)
}

// GetMem reads one lane's memory word.
func (p *PackedSim) GetMem(name string, lane, addr int) (uint64, error) {
	mi, ok := p.design.mems[name]
	if !ok {
		return 0, fmt.Errorf("fcl: unknown mem %q", name)
	}
	depth := p.design.Mems[mi].Depth
	if addr < 0 || addr >= depth {
		return 0, fmt.Errorf("fcl: mem %q address %d out of range", name, addr)
	}
	return p.mems[mi][lane*depth+addr], nil
}

// LoadMem initializes memory contents identically in every lane.
func (p *PackedSim) LoadMem(name string, words []uint64) error {
	mi, ok := p.design.mems[name]
	if !ok {
		return fmt.Errorf("fcl: unknown mem %q", name)
	}
	depth := p.design.Mems[mi].Depth
	if len(words) > depth {
		return fmt.Errorf("fcl: mem %q holds %d words, got %d", name, depth, len(words))
	}
	mask := widthMask(p.design.Mems[mi].Width)
	mem := p.mems[mi]
	for lane := 0; lane < Lanes; lane++ {
		for i, w := range words {
			mem[lane*depth+i] = w & mask
		}
	}
	p.settle()
	return nil
}
