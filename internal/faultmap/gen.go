package faultmap

import (
	"context"
	"math"
	"math/rand"

	"sramtest/internal/fault"
	"sramtest/internal/sram"
	"sramtest/internal/sweep"
)

// Spatial-correlation model constants. The shape follows the MoRS
// observation that DRAM/SRAM retention weakness arrives in correlated
// groups: whole rows or columns weakened by a shared word-line or
// bit-line defect, and compact clusters of weak bits from local
// systematic variation. The means are per map; the boosts multiply the
// per-bit marginal probabilities inside the affected region.
const (
	meanRowStreaks = 0.6  // expected weak-wordline streaks per map
	meanColStreaks = 0.6  // expected weak-bitline streaks per map
	meanClusters   = 1.2  // expected weak-bit clusters per map
	streakBoost    = 40.0 // probability multiplier on a streak
	clusterBoost   = 80.0 // probability multiplier inside a cluster
	minClusterR    = 2    // cluster radius range (cells, Chebyshev)
	maxClusterR    = 6

	// capDRF/capStatic bound one class's per-bit probability after the
	// boosts, so a streak crossing a cluster cannot push past 1.
	capDRF    = 0.25
	capStatic = 0.02

	// Voltage acceleration of the static defect classes: each AccelScale
	// of VDD below AccelRefVDD multiplies the rates by e (marginal
	// manufacturing defects surface as the operating margin shrinks).
	AccelRefVDD = 1.1 // V
	AccelScale  = 0.1 // V
)

// Generator samples the maps of one corpus. It carries the validated
// params and the DRV calibration, so construction pays the calibration
// solves once and Map calls are cheap and independently parallelizable.
type Generator struct {
	p     Params
	cal   Calib
	accel float64
}

// NewGenerator validates p and calibrates the DRV distribution.
func NewGenerator(p Params) (*Generator, error) {
	return newGenerator(context.Background(), p)
}

// newGenerator is NewGenerator under a context: the calibration solves
// run on p.Workers sweep workers and stop being scheduled once ctx is
// done.
func newGenerator(ctx context.Context, p Params) (*Generator, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	cal, err := calibrate(ctx, p.Model, p.Cond, p.Vref, p.Seed, p.Workers)
	if err != nil {
		return nil, err
	}
	return &Generator{
		p:     p,
		cal:   cal,
		accel: math.Exp((AccelRefVDD - p.Cond.VDD) / AccelScale),
	}, nil
}

// Params returns the validated params the generator runs with.
func (g *Generator) Params() Params { return g.p }

// Calib returns the corpus calibration.
func (g *Generator) Calib() Calib { return g.cal }

// poisson draws a Poisson count by Knuth's product method — exact for
// the small per-map means of the correlation model.
func poisson(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k, prod := 0, 1.0
	for {
		prod *= rng.Float64()
		if prod < l {
			return k
		}
		k++
	}
}

// cluster is one weak-bit cluster in physical coordinates.
type cluster struct {
	row, col, radius int
}

// Map samples map index of the corpus: the per-bit class assignment
// over the 4K×64 array under the correlated marginals. Each map owns
// the rand stream seeded by sweep.ChunkSeed(Seed, index), so the result
// is a pure function of (Params, index) — any map can be regenerated in
// isolation, in any order, on any worker.
func (g *Generator) Map(index int) *Map {
	seed := sweep.ChunkSeed(g.p.Seed, index)
	rng := rand.New(rand.NewSource(seed))
	m := &Map{Index: index, Seed: seed}

	// Correlation structure first, from a fixed draw order: weak rows,
	// weak columns, then clusters.
	rowF := make([]float64, sram.Rows)
	colF := make([]float64, sram.Cols)
	for i := range rowF {
		rowF[i] = 1
	}
	for i := range colF {
		colF[i] = 1
	}
	for i, n := 0, poisson(rng, meanRowStreaks); i < n; i++ {
		rowF[rng.Intn(sram.Rows)] *= streakBoost
	}
	for i, n := 0, poisson(rng, meanColStreaks); i < n; i++ {
		colF[rng.Intn(sram.Cols)] *= streakBoost
	}
	clusters := make([]cluster, poisson(rng, meanClusters))
	for i := range clusters {
		clusters[i] = cluster{
			row:    rng.Intn(sram.Rows),
			col:    rng.Intn(sram.Cols),
			radius: minClusterR + rng.Intn(maxClusterR-minClusterR+1),
		}
	}

	pStatic := g.p.Defect * g.accel
	for addr := 0; addr < sram.Words; addr++ {
		for bit := 0; bit < sram.Bits; bit++ {
			loc := sram.LocateCell(addr, bit)
			boost := rowF[loc.Row] * colF[loc.Col]
			for _, c := range clusters {
				dr, dc := loc.Row-c.row, loc.Col-c.col
				if dr < 0 {
					dr = -dr
				}
				if dc < 0 {
					dc = -dc
				}
				if dr <= c.radius && dc <= c.radius {
					boost *= clusterBoost
				}
			}
			pd := math.Min(g.cal.PDRF*boost, capDRF)
			ps := math.Min(pStatic*boost, capStatic)

			// One uniform partitions the mutually exclusive classes:
			// DRF0 | DRF1 | SAF0 | SAF1 | TFUp | TFDown | CF | none.
			u := rng.Float64()
			cell := fault.Cell{Addr: addr, Bit: bit}
			switch {
			case u < pd:
				m.DRF0 = append(m.DRF0, cell)
			case u < 2*pd:
				m.DRF1 = append(m.DRF1, cell)
			case u < 2*pd+ps:
				m.Static = append(m.Static, fault.Fault{Kind: fault.SAF0, Victim: cell})
			case u < 2*pd+2*ps:
				m.Static = append(m.Static, fault.Fault{Kind: fault.SAF1, Victim: cell})
			case u < 2*pd+3*ps:
				m.Static = append(m.Static, fault.Fault{Kind: fault.TFUp, Victim: cell})
			case u < 2*pd+4*ps:
				m.Static = append(m.Static, fault.Fault{Kind: fault.TFDown, Victim: cell})
			case u < 2*pd+5*ps:
				m.Static = append(m.Static, fault.Fault{
					Kind:      fault.CFid,
					Victim:    cell,
					Aggressor: physicalNeighbor(loc),
					Val:       rng.Float64() < 0.5,
				})
			}
		}
	}
	return m
}

// physicalNeighbor returns the cell one bit line over on the same word
// line — the physically adjacent aggressor of a coupling fault (at the
// array edge, the inward neighbor).
func physicalNeighbor(loc sram.CellLocation) fault.Cell {
	n := loc
	if n.Col == sram.Cols-1 {
		n.Col--
	} else {
		n.Col++
	}
	addr, bit := sram.CellAt(n)
	return fault.Cell{Addr: addr, Bit: bit}
}
