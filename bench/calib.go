package main

import "time"

// calibrator times two fixed pieces of work that touch nothing of the
// engine's: an ALU-only dependent chain (calib.alu_us: the core's clock and
// little else) and a chain of dependent random loads over 32 MiB
// (calib.mem_us: memory latency). A pair takes about 2 ms and runs every
// calibrateEvery foreground calls, outside every timing.
//
// The medians are diagnostics only: they say whether the machine was in the
// same state during two runs. No metric is divided by them. On the shared
// development box the ALU chain slowed by 8 % when the engine slowed by
// 42 %, and the load chain wandered by 25 % inside one steady stretch, so
// dividing by either made some workloads steadier and others worse.
type calibrator struct {
	mem      []uint64
	alu, ram []float64 // microseconds per sample
	sink     uint64
}

const (
	calibWords = 32 << 20 / 8
	aluIters   = 150_000
	memLoads   = 5_000
)

func newCalibrator() *calibrator {
	c := &calibrator{mem: make([]uint64, calibWords)}
	r := rng{s: 1}
	for i := range c.mem {
		c.mem[i] = r.next()
	}
	return c
}

// sample runs the pair n times.
func (c *calibrator) sample(n int) {
	for ; n > 0; n-- {
		t0 := time.Now()
		x := c.sink | 1
		for i := 0; i < aluIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		t1 := time.Now()
		for i := 0; i < memLoads; i++ {
			x = c.mem[x%calibWords] + uint64(i)
		}
		t2 := time.Now()
		c.sink = x
		c.alu = append(c.alu, float64(t1.Sub(t0))/1e3)
		c.ram = append(c.ram, float64(t2.Sub(t1))/1e3)
	}
}
