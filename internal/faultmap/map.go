package faultmap

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"sramtest/internal/fault"
	"sramtest/internal/sram"
)

// Map is one sampled fault map of the full 4K×64 array, in sparse form:
// the retention faults by polarity plus the static functional faults.
// Maps are generated in class order (retention first, then statics in
// array scan order), so two maps from the same stream are structurally
// identical slice-for-slice — the property Hash fingerprints.
type Map struct {
	// Index is the map's position in its corpus.
	Index int `json:"index"`
	// Seed is the derived rand seed the map was sampled from
	// (sweep.ChunkSeed(corpus seed, Index)).
	Seed int64 `json:"seed"`
	// DRF0/DRF1 list the bits that lose a stored 0/1 over any deep-sleep
	// dwell (DRV above the retention rail, polarity-resolved).
	DRF0 []fault.Cell `json:"drf0,omitempty"`
	DRF1 []fault.Cell `json:"drf1,omitempty"`
	// Static lists the functional (non-retention) faults, ready for
	// fault.NewInjector.
	Static []fault.Fault `json:"static,omitempty"`
}

// Bits returns the number of faulty bits in the map. A bit carries at
// most one fault (classes are sampled mutually exclusively), so this is
// also the map's faulty-cell count.
func (m *Map) Bits() int { return len(m.DRF0) + len(m.DRF1) + len(m.Static) }

// ByClass tallies the map's fault bits per class.
func (m *Map) ByClass() [NumClasses]int64 {
	var out [NumClasses]int64
	out[ClassDRF0] = int64(len(m.DRF0))
	out[ClassDRF1] = int64(len(m.DRF1))
	for _, f := range m.Static {
		out[classOf(f.Kind)]++
	}
	return out
}

// classOf maps a functional fault kind to its map class.
func classOf(k fault.Kind) Class {
	switch k {
	case fault.SAF0:
		return ClassSAF0
	case fault.SAF1:
		return ClassSAF1
	case fault.TFUp:
		return ClassTFUp
	case fault.TFDown:
		return ClassTFDown
	case fault.CFid, fault.CFin, fault.CFst:
		return ClassCF
	}
	return ClassNone
}

// Hash returns the hex SHA-256 fingerprint of the map's canonical
// serialization — the byte-identity witness of the determinism tests
// and the corpus digest. The serialization is fixed: never reorder it.
func (m *Map) Hash() string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeCell := func(c fault.Cell) {
		writeInt(int64(c.Addr))
		writeInt(int64(c.Bit))
	}
	writeInt(int64(m.Index))
	writeInt(m.Seed)
	writeInt(int64(len(m.DRF0)))
	for _, c := range m.DRF0 {
		writeCell(c)
	}
	writeInt(int64(len(m.DRF1)))
	for _, c := range m.DRF1 {
		writeCell(c)
	}
	writeInt(int64(len(m.Static)))
	for _, f := range m.Static {
		writeInt(int64(f.Kind))
		writeCell(f.Victim)
		writeCell(f.Aggressor)
		b := int64(0)
		if f.Val {
			b |= 1
		}
		if f.AggVal {
			b |= 2
		}
		writeInt(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Apply installs the map on the SRAM: the static faults through a
// fault.Injector and the retention faults through a power-transition
// layer that decays the listed bits polarity-sensitively on every
// deep-sleep entry. It replaces the hook set (like Injector.Attach);
// the built-in RetentionModel stays untouched, so map evaluation never
// pays a SPICE solve.
func (m *Map) Apply(s *sram.SRAM) {
	var h sram.Hooks
	if len(m.Static) > 0 {
		h = fault.NewInjector(m.Static...).Hooks()
		// The injector's per-bit hooks scan its whole fault list on every
		// bit of every access; at array scale that is 256 K scans per March
		// element. Gate them behind dense per-word masks so only words
		// that actually carry a fault pay the scan.
		victim := make([]uint64, sram.Words)
		aggressor := make([]bool, sram.Words)
		for _, f := range m.Static {
			victim[f.Victim.Addr] |= 1 << uint(f.Victim.Bit)
			if f.Kind == fault.CFin || f.Kind == fault.CFid || f.Kind == fault.CFst {
				aggressor[f.Aggressor.Addr] = true
			}
		}
		store, read, after := h.StoreBit, h.ReadBit, h.AfterWrite
		h.StoreBit = func(s *sram.SRAM, addr, bit int, old, new bool) bool {
			if victim[addr]>>uint(bit)&1 == 0 {
				return new
			}
			return store(s, addr, bit, old, new)
		}
		h.ReadBit = func(s *sram.SRAM, addr, bit int, stored bool) bool {
			if victim[addr]>>uint(bit)&1 == 0 {
				return stored
			}
			return read(s, addr, bit, stored)
		}
		h.AfterWrite = func(s *sram.SRAM, addr int, old, stored uint64) {
			if aggressor[addr] {
				after(s, addr, old, stored)
			}
		}
	}
	inner := h.PowerTransition
	h.PowerTransition = func(s *sram.SRAM, ev sram.PowerEvent) {
		if inner != nil {
			inner(s, ev)
		}
		if ev != sram.EnterDS {
			return
		}
		// Retention decay: a DRF1 bit cannot hold a 1 across the dwell, a
		// DRF0 bit cannot hold a 0. Bits already at the other value are
		// unaffected — retention faults are polarity-sensitive.
		for _, c := range m.DRF1 {
			if s.RawBit(c.Addr, c.Bit) {
				s.RawSetBit(c.Addr, c.Bit, false)
			}
		}
		for _, c := range m.DRF0 {
			if !s.RawBit(c.Addr, c.Bit) {
				s.RawSetBit(c.Addr, c.Bit, true)
			}
		}
	}
	s.SetHooks(h)
}

// NewSRAM returns a fresh array with the map applied — the memory a
// coverage evaluation runs its tests against.
func (m *Map) NewSRAM() *sram.SRAM {
	s := sram.New()
	m.Apply(s)
	return s
}
