package rtl

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/par"
)

// BlockConfig describes a block-parallel packed run: Blocks independent
// 64-lane PackedSims, each driven Cycles cycles of seeded random
// stimulus on Inputs, run on par's worker pool by at most Workers
// goroutines.
type BlockConfig struct {
	Blocks  int
	Cycles  int
	Workers int // <=0 means runtime.GOMAXPROCS(0)
	Seed    int64
	Inputs  []string
	// Digest lists the signals folded into each block's result digest
	// every cycle; empty means every output signal.
	Digest []string
}

// BlockResult is one block's outcome. Everything here is a pure
// function of (design, config, block index), so results are identical
// at any worker count.
type BlockResult struct {
	Block      int
	Cycles     uint64
	LaneCycles uint64
	// Digest folds the digest signals' planes after every cycle — the
	// determinism witness compared across worker counts.
	Digest uint64
}

// RunBlocks executes a block-parallel packed simulation: block b seeds
// its stimulus with Seed+b, so the full stimulus schedule is fixed by
// the config alone, and the returned slice is always in block order —
// goroutines only decide *when* a block runs, never what it computes.
// Block busy time is published as rtl.block.utilization (busy/wall)
// and the effective worker count as rtl.block.workers; total coverage
// counts into the rtl.block.cycles / rtl.block.lane_cycles counters.
func RunBlocks(d *Design, cfg BlockConfig, col *obs.Collector) ([]BlockResult, error) {
	if cfg.Blocks <= 0 {
		return nil, fmt.Errorf("fcl: RunBlocks needs at least one block")
	}
	workers := par.Workers(cfg.Workers, cfg.Blocks)
	digest := cfg.Digest
	if len(digest) == 0 {
		for _, s := range d.Signals {
			if s.Kind == KindOutput {
				digest = append(digest, s.Name)
			}
		}
	}
	for _, name := range digest {
		if d.SignalIndex(name) < 0 {
			return nil, fmt.Errorf("fcl: digest signal %q not found", name)
		}
	}

	results := make([]BlockResult, cfg.Blocks)
	errs := make([]error, cfg.Blocks)
	busy := make([]float64, cfg.Blocks) // per-block busy ms (volatile telemetry)
	t0 := obs.Now()
	par.Do(cfg.Blocks, workers, func(b int) {
		bt := obs.Now()
		results[b], errs[b] = runOneBlock(d, cfg, b, digest)
		busy[b] = float64(obs.Now().Sub(bt).Microseconds()) / 1000
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if col != nil {
		wallMS := float64(obs.Now().Sub(t0).Microseconds()) / 1000
		var busyMS float64
		for _, bm := range busy {
			busyMS += bm
		}
		col.SetGauge("rtl.block.workers", float64(workers))
		if wallMS > 0 {
			col.SetGauge("rtl.block.utilization", busyMS/(wallMS*float64(workers)))
		}
		col.Add("rtl.block.cycles", int64(cfg.Blocks)*int64(cfg.Cycles))
		col.Add("rtl.block.lane_cycles", int64(cfg.Blocks)*int64(cfg.Cycles)*Lanes)
	}
	return results, nil
}

// runOneBlock runs a single 64-lane block to completion.
func runOneBlock(d *Design, cfg BlockConfig, block int, digest []string) (BlockResult, error) {
	ps, err := NewPackedSimFromDesign(d)
	if err != nil {
		return BlockResult{}, err
	}
	st, err := NewPackedStimulus(ps, cfg.Seed+int64(block), cfg.Inputs...)
	if err != nil {
		return BlockResult{}, err
	}
	var dg uint64
	for i := 0; i < cfg.Cycles; i++ {
		st.Step()
		for _, name := range digest {
			si := d.SignalIndex(name)
			for _, pl := range ps.vals[ps.off[si] : ps.off[si]+d.Signals[si].Width] {
				dg = mix64(dg ^ pl)
			}
		}
	}
	return BlockResult{
		Block:      block,
		Cycles:     ps.Cycles(),
		LaneCycles: ps.LaneCycles(),
		Digest:     dg,
	}, nil
}

// mix64 is the splitmix64 finalizer — a cheap, well-mixed fold for
// digest accumulation.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
