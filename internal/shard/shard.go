// Package shard is the determinism contract shared by the sharded
// workloads (yield, faultmap, noisescan): a job's work is a fixed list
// of units — sample chunks, map chunks, rail points — indexed [0, n),
// shard s of k owns the units with index ≡ s (mod k), and a merge
// accepts one partial per shard only if together they ran the same job
// and cover every unit exactly once. Each workload keeps its own wire
// format and reduction; this package owns the parameter rule, the
// ownership list and the merge checks, so they cannot drift apart.
package shard

import (
	"fmt"
	"sort"
)

// Normalize validates a (shards, shard) pair: shards <= 1 means the
// whole job and becomes (1, 0); otherwise 0 <= shard < shards.
func Normalize(shards, shard int) (int, int, error) {
	if shards <= 1 {
		return 1, 0, nil
	}
	if shard < 0 || shard >= shards {
		return shards, shard, fmt.Errorf("shard %d not in [0, %d)", shard, shards)
	}
	return shards, shard, nil
}

// Whole is the rule of a whole-run entry point: it refuses shards > 1,
// which only a shard entry point plus a merge may run, instead of
// silently running the whole job or returning an empty result.
func Whole(shards int) error {
	if shards > 1 {
		return fmt.Errorf("a whole run needs shards <= 1, got %d (run each shard and merge the partials)", shards)
	}
	return nil
}

// Owned lists the unit indices in [0, n) that shard owns out of shards,
// in increasing order. The pair must already be normalized.
func Owned(n, shards, shard int) []int {
	out := make([]int, 0, n/shards+1)
	for i := shard; i < n; i += shards {
		out = append(out, i)
	}
	return out
}

// Part is the merge view of one shard's partial.
type Part[H comparable, U any] struct {
	// Version is the partial's wire-format version.
	Version int
	// Shards and Shard are the shard count and index the partial was
	// computed for.
	Shards int
	Shard  int
	// Head is the merge identity: the job header and the shard-invariant
	// calibration, which every part must agree on.
	Head H
	// N is the number of units of the whole job.
	N int
	// Units are the owned units, in any order.
	Units []U
}

// Merge checks a workload's partials against the contract and returns
// the union of their units in index order. view maps a partial to its
// Part and index reads a unit's index. It rejects an empty set, a
// version other than version, a part count other than Shards, a header,
// calibration or unit-count mismatch, a bad or duplicate shard index, a
// unit a shard does not own, and a union that is not exactly [0, N).
func Merge[P any, H comparable, U any](partials []P, view func(P) Part[H, U], version int, index func(U) int) ([]U, error) {
	if len(partials) == 0 {
		return nil, fmt.Errorf("no partials to merge")
	}
	parts := make([]Part[H, U], len(partials))
	for i, p := range partials {
		parts[i] = view(p)
	}
	ref := parts[0]
	if ref.Version != version {
		return nil, fmt.Errorf("partial version %d, want %d", ref.Version, version)
	}
	if len(parts) != ref.Shards {
		return nil, fmt.Errorf("%d partials for %d shards", len(parts), ref.Shards)
	}

	seen := make([]bool, ref.Shards)
	var units []U
	for _, p := range parts {
		if p.Version != ref.Version || p.Shards != ref.Shards || p.N != ref.N || p.Head != ref.Head {
			return nil, fmt.Errorf("shard %d disagrees on the job header or calibration", p.Shard)
		}
		if p.Shard < 0 || p.Shard >= ref.Shards || seen[p.Shard] {
			return nil, fmt.Errorf("bad or duplicate shard index %d", p.Shard)
		}
		seen[p.Shard] = true
		for _, u := range p.Units {
			if i := index(u); i < 0 || i%ref.Shards != p.Shard {
				return nil, fmt.Errorf("shard %d reports foreign unit %d", p.Shard, i)
			}
		}
		units = append(units, p.Units...)
	}

	sort.Slice(units, func(i, j int) bool { return index(units[i]) < index(units[j]) })
	if len(units) != ref.N {
		return nil, fmt.Errorf("merged %d units, want %d", len(units), ref.N)
	}
	for i, u := range units {
		if index(u) != i {
			return nil, fmt.Errorf("unit %d missing from the merge", i)
		}
	}
	return units, nil
}
