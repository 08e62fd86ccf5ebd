package shard

import (
	"reflect"
	"testing"
)

// head is a test merge identity: a job header plus a calibration value.
type head struct {
	Seed  int64
	Calib float64
}

type part = Part[head, int]

func ident(u int) int { return u }

func same(p part) part { return p }

// split builds the k parts of an n-unit job, each owning its units.
func split(n, k int) []part {
	parts := make([]part, k)
	for s := range parts {
		parts[s] = part{Version: 1, Shards: k, Shard: s, Head: head{Seed: 7, Calib: 0.5}, N: n, Units: Owned(n, k, s)}
	}
	return parts
}

func TestNormalize(t *testing.T) {
	for _, c := range []struct {
		shards, shard, wantShards, wantShard int
		ok                                   bool
	}{
		{0, 0, 1, 0, true},
		{1, 5, 1, 0, true},
		{-3, -1, 1, 0, true},
		{3, 0, 3, 0, true},
		{3, 2, 3, 2, true},
		{3, 3, 0, 0, false},
		{3, -1, 0, 0, false},
	} {
		k, s, err := Normalize(c.shards, c.shard)
		if (err == nil) != c.ok {
			t.Errorf("Normalize(%d, %d) err = %v, want ok = %v", c.shards, c.shard, err, c.ok)
			continue
		}
		if c.ok && (k != c.wantShards || s != c.wantShard) {
			t.Errorf("Normalize(%d, %d) = (%d, %d), want (%d, %d)", c.shards, c.shard, k, s, c.wantShards, c.wantShard)
		}
	}
	if Whole(1) != nil || Whole(0) != nil || Whole(2) == nil {
		t.Error("Whole must accept shards <= 1 and refuse shards > 1")
	}
}

func TestOwned(t *testing.T) {
	if got, want := Owned(10, 3, 1), []int{1, 4, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("Owned(10, 3, 1) = %v, want %v", got, want)
	}
	if got := Owned(2, 3, 2); len(got) != 0 {
		t.Errorf("Owned(2, 3, 2) = %v, want none", got)
	}
	if got, want := Owned(4, 1, 0), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("Owned(4, 1, 0) = %v, want %v", got, want)
	}
}

// TestMerge has one row per rejection class and the accept path at
// k = 1, 2 and 3.
func TestMerge(t *testing.T) {
	for _, c := range []struct {
		name  string
		parts func() []part
		ok    bool
	}{
		{"accept k=1", func() []part { return split(5, 1) }, true},
		{"accept k=2", func() []part { return split(5, 2) }, true},
		{"accept k=3 reversed", func() []part { p := split(7, 3); p[0], p[2] = p[2], p[0]; return p }, true},
		{"accept empty job", func() []part { return split(0, 2) }, true},
		{"empty set", func() []part { return nil }, false},
		{"future version", func() []part {
			p := split(5, 2)
			p[0].Version, p[1].Version = 2, 2
			return p
		}, false},
		{"missing part", func() []part { return split(5, 3)[:2] }, false},
		{"header mismatch", func() []part { p := split(5, 2); p[1].Head.Seed++; return p }, false},
		{"calibration mismatch", func() []part { p := split(5, 2); p[1].Head.Calib = 0.25; return p }, false},
		{"unit count mismatch", func() []part { p := split(5, 2); p[1].N = 6; return p }, false},
		{"shards mismatch", func() []part { p := split(5, 2); p[1].Shards = 3; return p }, false},
		{"version mismatch", func() []part { p := split(5, 2); p[1].Version = 2; return p }, false},
		{"duplicate shard", func() []part { p := split(5, 2); p[1] = p[0]; return p }, false},
		{"shard out of range", func() []part { p := split(5, 2); p[1].Shard = 2; return p }, false},
		{"negative shard", func() []part { p := split(5, 2); p[1].Shard = -1; return p }, false},
		{"foreign unit", func() []part {
			p := split(6, 2)
			p[1].Units = append([]int{0}, p[1].Units...)
			p[0].Units = p[0].Units[1:]
			return p
		}, false},
		{"negative unit", func() []part { p := split(5, 2); p[0].Units = append(p[0].Units, -2); return p }, false},
		{"missing unit", func() []part { p := split(5, 2); p[1].Units = p[1].Units[:1]; return p }, false},
		{"repeated unit", func() []part { p := split(5, 2); p[0].Units = append(p[0].Units, 0); return p }, false},
		{"unit past n", func() []part { p := split(5, 2); p[1].Units = append(p[1].Units, 5); return p }, false},
		{"units for an empty job", func() []part { p := split(0, 2); p[0].Units = []int{0}; return p }, false},
	} {
		parts := c.parts()
		got, err := Merge(parts, same, 1, ident)
		if !c.ok {
			if err == nil {
				t.Errorf("%s: merge accepted %v", c.name, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if len(got) != parts[0].N {
			t.Errorf("%s: merged %d units, want %d", c.name, len(got), parts[0].N)
		}
		for i, u := range got {
			if u != i {
				t.Errorf("%s: unit %d at position %d", c.name, u, i)
			}
		}
	}
}

// FuzzMerge: on any input the merge either errors or returns each index
// in [0, N) exactly once, in order; it never panics. data encodes up to
// eight parts as (version, shards, shard, seed, n, count, units...)
// bytes read as signed.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 0, 3, 3, 0, 1, 2})
	f.Add([]byte{1, 2, 0, 0, 3, 2, 0, 2, 1, 2, 1, 0, 3, 1, 1})
	f.Add([]byte{1, 2, 1, 0, 3, 1, 1, 1, 2, 0, 0, 3, 2, 2, 0})
	f.Add([]byte{1, 2, 0, 0, 3, 2, 0, 2, 1, 2, 0, 0, 3, 1, 1})
	f.Add([]byte{1, 3, 0, 0, 2, 1, 0, 1, 3, 1, 0, 2, 1, 1, 1, 3, 2, 0, 2, 0})
	f.Add([]byte{1, 2, 0, 0, 2, 1, 254, 1, 2, 1, 0, 2, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(int8(data[0]))
			data = data[1:]
			return b
		}
		var parts []part
		for len(data) > 0 && len(parts) < 8 {
			p := part{Version: next(), Shards: next(), Shard: next(), Head: head{Seed: int64(next())}, N: next()}
			for c := next(); c > 0 && len(data) > 0; c-- {
				p.Units = append(p.Units, next())
			}
			parts = append(parts, p)
		}
		got, err := Merge(parts, same, 1, ident)
		if err != nil {
			return
		}
		if len(got) != parts[0].N {
			t.Fatalf("merged %d units, want %d", len(got), parts[0].N)
		}
		for i, u := range got {
			if u != i {
				t.Fatalf("unit %d at position %d", u, i)
			}
		}
	})
}
