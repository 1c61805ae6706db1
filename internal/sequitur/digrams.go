package sequitur

import "sort"

// This file applies the grammar to *static instruction streams*. The VM's
// predecoder (internal/vm) feeds each function's opcode sequence through
// the same machinery that compresses data reference traces; rules surface
// exactly the digrams that repeat, and RuleFreq weights them by how often
// their enclosing rule recurs. The hot digrams gate superinstruction
// fusion: only opcode pairs that the grammar proves repeated are worth a
// fused handler.

// Digram is one adjacent symbol pair with its occurrence weight.
type Digram struct {
	A, B int64
	// Count is a lower bound on the pair's occurrences in the input: the
	// sum of enclosing-rule frequencies over every place the pair appears
	// adjacently inside a rule body. SEQUITUR's digram-uniqueness invariant
	// guarantees every repeated pair is captured by some rule, so any pair
	// occurring >= 2 times reports Count >= 2.
	Count int
}

// DigramCounter accumulates hot-digram counts across several inputs (the
// predecoder runs one grammar per function so pairs never straddle a
// function boundary, then merges the counts program-wide).
type DigramCounter struct {
	counts map[[2]int64]int
}

// NewDigramCounter returns an empty accumulator.
func NewDigramCounter() *DigramCounter {
	return &DigramCounter{counts: make(map[[2]int64]int)}
}

// Observe builds the grammar over one input sequence and folds its digram
// weights into the accumulator. Values must be non-negative (the grammar's
// terminal space).
func (c *DigramCounter) Observe(seq []int64) {
	if len(seq) < 2 {
		return
	}
	g := NewGrammar()
	for _, v := range seq {
		g.Append(v)
	}
	freq := RuleFreq(g)
	for num := range g.rules {
		if !g.rules[num].live {
			continue
		}
		f := freq[num]
		if f == 0 {
			continue
		}
		// Walk the rule body; every adjacent terminal-terminal pair inside
		// a rule occurring f times occurs (at least) f times in the input.
		prev := int64(-1)
		hasPrev := false
		for s := g.firstOf(int32(num)); !g.syms[s].guard; s = g.syms[s].next {
			v := g.syms[s].value
			if v < 0 { // nonterminal: breaks terminal adjacency at this level
				hasPrev = false
				continue
			}
			if hasPrev {
				c.counts[[2]int64{prev, v}] += f
			}
			prev, hasPrev = v, true
		}
	}
}

// Hot returns the accumulated digrams with Count >= min, hottest first
// (ties broken by pair value for determinism).
func (c *DigramCounter) Hot(min int) []Digram {
	out := make([]Digram, 0, len(c.counts))
	for k, n := range c.counts {
		if n >= min {
			out = append(out, Digram{A: k[0], B: k[1], Count: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// HotDigrams is the single-input convenience: grammar over seq, digrams
// with Count >= min, hottest first.
func HotDigrams(seq []int64, min int) []Digram {
	c := NewDigramCounter()
	c.Observe(seq)
	return c.Hot(min)
}
