// Package sequitur implements SEQUITUR (Nevill-Manning & Witten, 1997):
// linear-time, incremental inference of a context-free grammar whose
// language is exactly the input string. internal/hds compresses
// object-level data reference traces with it to extract hot data streams
// (the paper's PLDI '06 comparison technique).
package sequitur

import (
	"math"
	"math/bits"
)

// The grammar is laid out for the trace-compression fast path. Symbols live
// in one dense slab of 16-byte nodes addressed by int32 index (with a free
// list threaded through retired nodes), rules in a slice indexed by rule
// number (numbers are assigned densely and deleted numbers never reused),
// and the digram index is a flat open-addressing hash table of 16-byte
// entries, each a packed symbol pair and the slab index of its registered
// occurrence, so a probe touches one cache line. Every symbol carries a bit
// saying whether it is that registered occurrence, so unlinking a symbol
// that owns no entry costs no probe. Nothing in the structure holds a Go
// pointer, so a terminal append performs no map operations, no allocation
// in the steady state, and generates no GC write-barrier or scan work.

// symNil is the null slab index; slab index 0 is reserved so 0 can mean
// "none" in links and "empty" in digram-table entries.
const symNil int32 = 0

// symbol is a node in a rule body's doubly linked list, addressed by its
// slab index. A symbol is a terminal (value >= 0), a nonterminal reference
// (value < 0, encoding rule -value-1), or a rule's guard sentinel (guard
// true, value encoding the owning rule the same way).
type symbol struct {
	next, prev int32
	value      int32 // the digram key half: terminal value, or -ruleNumber-1
	guard      bool
	// reg is set while the digram table's entry for this symbol's digram
	// (value, next's value) names this symbol as its occurrence.
	reg bool
}

// ruleData is a grammar production's slab-side state.
type ruleData struct {
	guard int32 // slab index of the guard sentinel
	count int32 // references from other rules
	live  bool
}

// Grammar is a SEQUITUR grammar under construction.
type Grammar struct {
	syms    []symbol
	free    int32 // free-list head (threaded through next), symNil when empty
	rules   []ruleData
	nlive   int
	length  int // terminals consumed
	digrams digramTable
}

// Rule is a handle on a grammar production.
type Rule struct {
	g      *Grammar
	Number int // stable id; 0 is the start rule
}

// NewGrammar returns an empty grammar.
func NewGrammar() *Grammar {
	g := &Grammar{syms: make([]symbol, 1, 1024), free: symNil}
	g.newRule()
	return g
}

// ntKey encodes a rule number as a symbol value (negated, offset, so the
// terminal and nonterminal spaces cannot collide).
func ntKey(rule int32) int32 { return -rule - 1 }

// ruleOf inverts ntKey.
func ruleOf(value int32) int32 { return -value - 1 }

// newSymbol hands out a slab node with the given key.
//
//halo:hot
func (g *Grammar) newSymbol(value int32, guard bool) int32 {
	i := g.free
	if i != symNil {
		g.free = g.syms[i].next
	} else {
		g.syms = append(g.syms, symbol{})
		i = int32(len(g.syms) - 1)
	}
	g.syms[i] = symbol{value: value, guard: guard}
	return i
}

// freeSymbol recycles a node the algorithm has permanently unlinked.
//
//halo:hot
func (g *Grammar) freeSymbol(i int32) {
	g.syms[i].next = g.free
	g.syms[i].prev = symNil
	g.free = i
}

func (g *Grammar) newRule() int32 {
	num := int32(len(g.rules))
	guard := g.newSymbol(ntKey(num), true)
	g.syms[guard].next, g.syms[guard].prev = guard, guard
	g.rules = append(g.rules, ruleData{guard: guard, live: true})
	g.nlive++
	return num
}

// deleteRule removes a rule inlined by the utility invariant. Its number is
// retired, never reused.
func (g *Grammar) deleteRule(num int32) {
	g.freeSymbol(g.rules[num].guard)
	g.rules[num].live = false
	g.nlive--
}

func (g *Grammar) firstOf(num int32) int32 { return g.syms[g.rules[num].guard].next }
func (g *Grammar) lastOf(num int32) int32  { return g.syms[g.rules[num].guard].prev }

func (g *Grammar) isNT(i int32) bool { return g.syms[i].value < 0 && !g.syms[i].guard }

// join links left and right, clearing any digram that started at left.
func (g *Grammar) join(left, right int32) {
	g.deleteDigram(left)
	g.syms[left].next = right
	g.syms[right].prev = left
}

// insertAfter inserts y after s.
//
//halo:hot
func (g *Grammar) insertAfter(s, y int32) {
	g.join(y, g.syms[s].next)
	g.join(s, y)
}

// deleteDigram removes the digram table entry starting at s, if s is its
// registered occurrence.
//
//halo:hot
func (g *Grammar) deleteDigram(s int32) {
	if !g.syms[s].reg {
		return
	}
	g.syms[s].reg = false
	g.digrams.delete(g.digramKey(s))
}

// digramKey packs the digram starting at s into a table key.
func (g *Grammar) digramKey(s int32) uint64 {
	return packDigram(g.syms[s].value, g.syms[g.syms[s].next].value)
}

// register makes s the registered occurrence of its digram, replacing
// (and unmarking) any previous one.
func (g *Grammar) register(s int32) {
	if old := g.digrams.put(g.digramKey(s), s); old != symNil {
		g.syms[old].reg = false
	}
	g.syms[s].reg = true
}

// unlink removes s from its list, updating digrams and rule usage.
func (g *Grammar) unlink(s int32) {
	g.join(g.syms[s].prev, g.syms[s].next)
	if !g.syms[s].guard {
		g.deleteDigram(s)
		if g.isNT(s) {
			g.rules[ruleOf(g.syms[s].value)].count--
		}
	}
}

// check enforces digram uniqueness for the digram starting at s. Returns
// true if a substitution happened.
//
//halo:hot
func (g *Grammar) check(s int32) bool {
	n := g.syms[s].next
	if g.syms[s].guard || g.syms[n].guard {
		return false
	}
	found := g.digrams.getOrInsert(g.digramKey(s), s)
	if found == symNil {
		g.syms[s].reg = true
		return false
	}
	if g.syms[found].next != s {
		g.match(s, found)
	}
	return true
}

// match resolves a repeated digram: reuse the rule if the other occurrence
// is a complete rule body, otherwise create a new rule for the digram.
func (g *Grammar) match(s, found int32) {
	var r int32
	fPrev, fNextNext := g.syms[found].prev, g.syms[g.syms[found].next].next
	if g.syms[fPrev].guard && g.syms[fNextNext].guard {
		r = ruleOf(g.syms[fPrev].value)
		g.substitute(s, r)
	} else {
		r = g.newRule()
		g.insertAfter(g.lastOf(r), g.copySymbol(s))
		g.insertAfter(g.lastOf(r), g.copySymbol(g.syms[s].next))
		g.register(g.firstOf(r))
		g.substitute(found, r)
		g.substitute(s, r)
	}
	// Rule utility: a rule referenced once is inlined at its last use.
	if f := g.firstOf(r); g.isNT(f) && g.rules[ruleOf(g.syms[f].value)].count == 1 {
		g.expand(f)
	}
}

// copySymbol clones a symbol's value into a fresh node.
func (g *Grammar) copySymbol(s int32) int32 {
	v := g.syms[s].value
	if v < 0 {
		g.rules[ruleOf(v)].count++
	}
	return g.newSymbol(v, false)
}

// substitute replaces s and its successor with a reference to rule r.
func (g *Grammar) substitute(s, r int32) {
	q := g.syms[s].prev
	dead := g.syms[s].next
	g.unlink(dead)
	g.unlink(s)
	g.freeSymbol(dead)
	g.freeSymbol(s)
	g.rules[r].count++
	g.insertAfter(q, g.newSymbol(ntKey(r), false))
	if !g.check(q) {
		g.check(g.syms[q].next)
	}
}

// expand inlines the rule of a once-referenced nonterminal occurrence.
func (g *Grammar) expand(s int32) {
	left, right := g.syms[s].prev, g.syms[s].next
	num := ruleOf(g.syms[s].value)
	f, l := g.firstOf(num), g.lastOf(num)
	g.deleteDigram(s)
	g.deleteRule(num)
	g.join(left, f)
	g.join(l, right)
	if !g.syms[l].guard && !g.syms[right].guard {
		g.register(l)
	}
	g.freeSymbol(s)
}

// Append feeds the next terminal of the input sequence. Terminals must lie
// in [0, math.MaxInt32], the range a packed digram key holds; Append
// panics on any other value.
//
//halo:hot
func (g *Grammar) Append(value int64) {
	if value < 0 {
		panic("sequitur: terminals must be non-negative") //halo:errfmt-ok negative terminals violate the documented Append contract
	}
	if value > math.MaxInt32 {
		panic("sequitur: terminals must not exceed math.MaxInt32") //halo:errfmt-ok out-of-range terminals violate the documented Append contract
	}
	g.length++
	t := g.newSymbol(int32(value), false)
	g.insertAfter(g.lastOf(0), t)
	if p := g.syms[g.lastOf(0)].prev; !g.syms[p].guard {
		g.check(p)
	}
}

// Length reports the number of terminals consumed.
func (g *Grammar) Length() int { return g.length }

// NumRules reports the live rule count (including the start rule).
func (g *Grammar) NumRules() int { return g.nlive }

// NumAssigned reports how many rule numbers have ever been handed out;
// slices indexed by rule number size themselves with it (deleted numbers
// are never reused).
func (g *Grammar) NumAssigned() int { return len(g.rules) }

// Live reports whether the rule number is still a live production.
func (g *Grammar) Live(num int) bool { return num < len(g.rules) && g.rules[num].live }

// RuleOf decodes a nonterminal reference as it appears in a rule body
// (a negative value) back to its rule number.
func RuleOf(ref int64) int { return int(-ref - 1) }

// Body returns a rule's symbol sequence: terminal values (>= 0) and rule
// references encoded as -Number-1.
func (r *Rule) Body() []int64 {
	g := r.g
	var out []int64
	for s := g.firstOf(int32(r.Number)); !g.syms[s].guard; s = g.syms[s].next {
		out = append(out, int64(g.syms[s].value))
	}
	return out
}

// Rules returns the live rules in ascending rule-number order; the first is
// always the start rule (number 0).
func (g *Grammar) Rules() []*Rule {
	out := make([]*Rule, 0, g.nlive)
	for num := range g.rules {
		if g.rules[num].live {
			out = append(out, &Rule{g: g, Number: num})
		}
	}
	return out
}

// Start returns the start rule.
func (g *Grammar) Start() *Rule { return &Rule{g: g, Number: 0} }

// Expand reconstructs the full input sequence (for validation).
func (g *Grammar) Expand() []int64 {
	var out []int64
	var walk func(num int32)
	walk = func(num int32) {
		for s := g.firstOf(num); !g.syms[s].guard; s = g.syms[s].next {
			if v := g.syms[s].value; v < 0 {
				walk(ruleOf(v))
			} else {
				out = append(out, int64(v))
			}
		}
	}
	walk(0)
	return out
}

// digramTable is a flat open-addressing hash table from digrams (the pair
// of adjacent symbol values, packed into one uint64) to the slab index of
// their registered occurrence. Linear probing with backward-shift
// deletion, so there are no tombstones; the load stays at most one half.
// The table holds no Go pointers.
type digramTable struct {
	entries []digramEntry
	shift   uint // 64 - log2(len(entries)), for Fibonacci hashing
	n       int  // live entries
}

// digramEntry is one slot: 16 bytes, four to a cache line, so reading an
// entry never touches two lines.
type digramEntry struct {
	key uint64
	occ int32 // symNil = empty
}

const digramTableMinCap = 64

// packDigram packs a digram's two symbol values into a table key.
func packDigram(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// home is the key's preferred slot: Fibonacci hashing, the top bits of the
// key times 2^64/phi.
func (t *digramTable) home(key uint64) uint64 { return (key * 0x9e3779b97f4a7c15) >> t.shift }

// slot returns the index of key's entry, or of the empty slot that ends
// its probe run when key is absent.
func (t *digramTable) slot(key uint64) uint64 {
	mask := uint64(len(t.entries) - 1)
	i := t.home(key)
	for t.entries[i].occ != symNil && t.entries[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// getOrInsert returns the registered occurrence of key, or registers s and
// returns symNil.
//
//halo:hot
func (t *digramTable) getOrInsert(key uint64, s int32) int32 {
	if 2*(t.n+1) > len(t.entries) {
		t.grow()
	}
	e := &t.entries[t.slot(key)]
	if e.occ != symNil {
		return e.occ
	}
	*e = digramEntry{key: key, occ: s}
	t.n++
	return symNil
}

// put registers s as the occurrence of key and returns the occurrence it
// replaced, or symNil.
func (t *digramTable) put(key uint64, s int32) int32 {
	if 2*(t.n+1) > len(t.entries) {
		t.grow()
	}
	e := &t.entries[t.slot(key)]
	old := e.occ
	if old == symNil {
		e.key = key
		t.n++
	}
	e.occ = s
	return old
}

// delete removes key's entry, if present. Later entries of the probe run
// shift back into the hole, so every key stays reachable from its home
// slot without a tombstone.
//
//halo:hot
func (t *digramTable) delete(key uint64) {
	i := t.slot(key)
	if t.entries[i].occ == symNil {
		return
	}
	t.n--
	mask := uint64(len(t.entries) - 1)
	for j := (i + 1) & mask; t.entries[j].occ != symNil; j = (j + 1) & mask {
		// The entry at j may fill the hole at i only if its home slot is
		// not cyclically after i.
		if (j-t.home(t.entries[j].key))&mask >= (j-i)&mask {
			t.entries[i] = t.entries[j]
			i = j
		}
	}
	t.entries[i].occ = symNil
}

// grow doubles the table and reinserts every live entry.
func (t *digramTable) grow() {
	old := t.entries
	newCap := 2 * len(old)
	if newCap < digramTableMinCap {
		newCap = digramTableMinCap
	}
	t.entries = make([]digramEntry, newCap)
	t.shift = uint(64 - bits.TrailingZeros(uint(newCap)))
	mask := uint64(newCap - 1)
	for _, e := range old {
		if e.occ == symNil {
			continue
		}
		i := t.home(e.key)
		for t.entries[i].occ != symNil {
			i = (i + 1) & mask
		}
		t.entries[i] = e
	}
}
