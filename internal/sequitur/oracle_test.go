package sequitur

import (
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// checkGrammar is the grammar oracle: it verifies the digram index and the
// SEQUITUR invariants against a full walk of the live rules. It returns
// the first violation found, or nil.
//
//   - Every digram-table entry names a live, non-guard symbol whose current
//     digram is the entry's key, and is reachable from its home slot.
//   - A symbol's registered bit is set exactly when its digram's entry
//     names it.
//   - No digram of two different symbols occurs twice in the rule
//     bodies. Digrams of a repeated symbol are exempt: in a run like
//     "aaa" the two overlapping digrams cannot both be indexed, and once
//     the registered one is rewritten the other is left unindexed and may
//     repeat later. Classic SEQUITUR behaves the same, so the oracle also
//     does not demand that every digram be indexed.
//   - Every rule but the start rule is referenced, and its reference count
//     matches the references in the bodies. Rule utility is enforced the
//     way the reference implementation enforces it, only on the first
//     symbol of a rule a match creates or reuses, so a rule can be left
//     with a single use: "1 2 2 2 1 2 0 2 2 1 2" ends with rule [2 r1]
//     referenced once, from [2 r2 0]. The oracle therefore demands one
//     reference, not two; TestSequiturRuleUtility pins an input where
//     every rule is used twice.
func checkGrammar(g *Grammar) error {
	live := make(map[int32]bool)
	refs := make([]int32, len(g.rules))
	nlive := 0
	for num := range g.rules {
		if !g.rules[num].live {
			continue
		}
		nlive++
		guard := g.rules[num].guard
		if !g.syms[guard].guard || g.syms[guard].value != ntKey(int32(num)) {
			return fmt.Errorf("rule %d: bad guard %d", num, guard)
		}
		for s := g.syms[guard].next; s != guard; s = g.syms[s].next {
			if s == symNil || g.syms[s].guard || live[s] {
				return fmt.Errorf("rule %d: broken body list at symbol %d", num, s)
			}
			if g.syms[g.syms[s].next].prev != s {
				return fmt.Errorf("rule %d: symbol %d's successor does not link back", num, s)
			}
			live[s] = true
			if v := g.syms[s].value; v < 0 {
				if r := ruleOf(v); int(r) >= len(g.rules) || !g.rules[r].live {
					return fmt.Errorf("rule %d: symbol %d references dead rule %d", num, s, r)
				}
				refs[ruleOf(v)]++
			}
		}
	}
	if nlive != g.nlive {
		return fmt.Errorf("nlive = %d, walk found %d live rules", g.nlive, nlive)
	}
	for num := range g.rules {
		if !g.rules[num].live || num == 0 {
			continue
		}
		if refs[num] != g.rules[num].count {
			return fmt.Errorf("rule %d: count %d, bodies reference it %d times", num, g.rules[num].count, refs[num])
		}
		if refs[num] < 1 {
			return fmt.Errorf("rule %d is live but unreferenced", num)
		}
	}

	t := &g.digrams
	n := 0
	for i, e := range t.entries {
		if e.occ == symNil {
			continue
		}
		n++
		s := e.occ
		if !live[s] || g.syms[g.syms[s].next].guard {
			return fmt.Errorf("slot %d: occurrence %d is not a live symbol starting a digram", i, s)
		}
		if k := g.digramKey(s); k != e.key {
			return fmt.Errorf("slot %d: key %#x, but occurrence %d's digram is %#x", i, e.key, s, k)
		}
		if lookup(t, e.key) != s {
			return fmt.Errorf("slot %d: key %#x unreachable from its home slot", i, e.key)
		}
	}
	if n != t.n {
		return fmt.Errorf("table counts %d entries, holds %d", t.n, n)
	}
	if 2*t.n > len(t.entries) {
		return fmt.Errorf("table load %d/%d above one half", t.n, len(t.entries))
	}

	seen := make(map[uint64]int32)
	for s := range live {
		next := g.syms[s].next
		if g.syms[next].guard {
			if g.syms[s].reg {
				return fmt.Errorf("symbol %d ends its rule but is marked registered", s)
			}
			continue
		}
		key := g.digramKey(s)
		occ := lookup(t, key)
		if g.syms[s].reg != (occ == s) {
			return fmt.Errorf("symbol %d: registered bit %v, table names %d", s, g.syms[s].reg, occ)
		}
		if occ == symNil && g.syms[s].value != g.syms[next].value {
			return fmt.Errorf("symbol %d: digram %#x not indexed", s, key)
		}
		if other, dup := seen[key]; dup && g.syms[s].value != g.syms[next].value {
			return fmt.Errorf("digram %#x occurs at symbols %d and %d", key, other, s)
		}
		seen[key] = s
	}
	for s := range g.syms {
		if g.syms[s].reg && !live[int32(s)] {
			return fmt.Errorf("dead symbol %d marked registered", s)
		}
	}
	return nil
}

// lookup finds key's occurrence by probing from its home slot.
func lookup(t *digramTable, key uint64) int32 {
	if len(t.entries) == 0 {
		return symNil
	}
	return t.entries[t.slot(key)].occ
}

// terminalsOf maps fuzz bytes to a terminal sequence: the first byte picks
// the alphabet size (small alphabets maximise rule churn) and, with its
// high bit, whether terminals sit at the top of the int32 range, where a
// sign or packing slip in the digram key would alias them.
func terminalsOf(data []byte) []int64 {
	if len(data) == 0 {
		return nil
	}
	alphabet := int64(data[0]&0x0f) + 1
	high := data[0]&0x80 != 0
	seq := make([]int64, 0, len(data)-1)
	for _, b := range data[1:] {
		v := int64(b) % alphabet
		if high {
			v = math.MaxInt32 - v
		}
		seq = append(seq, v)
	}
	return seq
}

// FuzzGrammar builds grammars over fuzzed sequences, checking the oracle
// after every Append and the round trip at the end.
func FuzzGrammar(f *testing.F) {
	f.Add([]byte{0x01, 1, 2, 1, 2, 1, 2})
	f.Add([]byte{0x02, 0, 1, 2, 0, 1, 2, 0, 1, 2})
	f.Add([]byte{0x00, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Add([]byte{0x83, 1, 2, 2, 1, 2, 2, 3, 1, 2, 2, 1, 2, 2, 3})
	f.Add([]byte{0x04, 1, 2, 1, 2, 3, 1, 2, 1, 2, 3, 4, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256] // the oracle is linear per Append
		}
		seq := terminalsOf(data)
		g := NewGrammar()
		for i, v := range seq {
			g.Append(v)
			if err := checkGrammar(g); err != nil {
				t.Fatalf("after terminal %d of %v: %v", i, seq, err)
			}
		}
		if got := g.Expand(); !eq(got, seq) {
			t.Fatalf("expand = %v, want %v", got, seq)
		}
	})
}

// TestGrammarOracleRandomised runs the oracle over the randomised
// round-trip inputs: many short sequences over tiny alphabets.
func TestGrammarOracleRandomised(t *testing.T) {
	state := uint64(1)
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 1+trial%120)
		for i := range data {
			state = state*6364136223846793005 + 1442695040888963407
			data[i] = byte(state >> 56)
		}
		seq := terminalsOf(data)
		g := NewGrammar()
		for i, v := range seq {
			g.Append(v)
			if err := checkGrammar(g); err != nil {
				t.Fatalf("trial %d, after terminal %d of %v: %v", trial, i, seq, err)
			}
		}
		if got := g.Expand(); !eq(got, seq) {
			t.Fatalf("trial %d: expand mismatch", trial)
		}
	}
}

// TestNodeSizes pins the layout the cache behaviour relies on: a symbol
// and a digram-table entry are 16 bytes each, four to a cache line.
func TestNodeSizes(t *testing.T) {
	if n := unsafe.Sizeof(symbol{}); n != 16 {
		t.Errorf("symbol is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(digramEntry{}); n != 16 {
		t.Errorf("digramEntry is %d bytes, want 16", n)
	}
}
