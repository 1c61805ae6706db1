// Package policy defines the allocator-policy JSON document exchanged by
// the pipeline's frontends: `halo opt` writes it, `halo run -alloc halo`
// consumes it, and the halod daemon serves it for finished optimize jobs.
// It lives in a leaf package so the CLI and the service share one
// definition without depending on each other.
package policy

import (
	"fmt"

	"halo/internal/vm"
)

// Doc is the policy document.
type Doc struct {
	Program   string         `json:"program"`
	NumBits   int            `json:"num_bits"`
	Selectors []Sel          `json:"selectors"`
	Halloc    Halloc         `json:"halloc"`
	Sites     map[string]int `json:"sites"` // site string -> bit
}

// maxNumBits bounds num_bits. The rewriter assigns one bit per
// instrumented call site, a few dozen in practice; every run allocates the
// group-state vector at full width, so the bound keeps a hostile document
// from requesting gigabytes.
const maxNumBits = 1 << 20

// Validate checks the document against what a run indexes with it: the
// group-state vector is num_bits wide (vm.DefaultGroupBits when num_bits
// is 0), so num_bits must lie in [0, maxNumBits] and every conjunction bit
// inside that width; selector groups must be non-negative.
func (d *Doc) Validate() error {
	if d.NumBits < 0 || d.NumBits > maxNumBits {
		return fmt.Errorf("policy: num_bits %d outside [0, %d]", d.NumBits, maxNumBits)
	}
	width := d.NumBits
	if width == 0 {
		width = vm.DefaultGroupBits
	}
	for i, s := range d.Selectors {
		if s.Group < 0 {
			return fmt.Errorf("policy: selector %d: group %d is negative", i, s.Group)
		}
		for _, conj := range s.Conj {
			for _, bit := range conj {
				if bit < 0 || bit >= width {
					return fmt.Errorf("policy: selector %d: bit %d outside [0, %d)", i, bit, width)
				}
			}
		}
	}
	return nil
}

// Sel is one lowered selector.
type Sel struct {
	Group int     `json:"group"`
	Conj  [][]int `json:"conj"`
}

// Halloc carries group-allocator tuning. The daemon leaves it zero
// (requests do not expose allocator tuning); `halo opt` fills it from its
// flags.
type Halloc struct {
	ChunkSize   uint64 `json:"chunk_size,omitempty"`
	NoSpare     bool   `json:"no_spare,omitempty"`
	AlwaysReuse bool   `json:"always_reuse,omitempty"`
}
