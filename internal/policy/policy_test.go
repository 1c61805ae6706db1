package policy

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"halo/internal/bits"
	"halo/internal/halloc"
	"halo/internal/vm"
)

func sampleDoc() Doc {
	return Doc{
		Program: "povray",
		NumBits: 3,
		Selectors: []Sel{
			{Group: 0, Conj: [][]int{{0, 2}, {1}}},
			{Group: 1, Conj: [][]int{{2}}},
		},
		Halloc: Halloc{ChunkSize: 1 << 20, AlwaysReuse: true},
		Sites:  map[string]int{"main+4": 0, "f+12": 1, "g+8": 2},
	}
}

// TestDocRoundTrip checks that a valid document survives encode/decode
// unchanged and still validates.
func TestDocRoundTrip(t *testing.T) {
	want := sampleDoc()
	if err := want.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Doc
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the document:\n got %+v\nwant %+v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Doc)
		want string
	}{
		{"negative num_bits", func(d *Doc) { d.NumBits = -1 }, "num_bits -1"},
		{"oversized num_bits", func(d *Doc) { d.NumBits = maxNumBits + 1 }, "outside [0, 1048576]"},
		{"bit at width", func(d *Doc) { d.Selectors[1].Conj[0][0] = 3 }, "bit 3 outside [0, 3)"},
		{"negative bit", func(d *Doc) { d.Selectors[0].Conj[1][0] = -2 }, "bit -2"},
		{"negative group", func(d *Doc) { d.Selectors[1].Group = -1 }, "group -1"},
		{"bit past default width", func(d *Doc) {
			d.NumBits = 0
			d.Selectors[0].Conj[0][0] = vm.DefaultGroupBits
		}, "outside [0, 64)"},
	} {
		d := sampleDoc()
		tc.edit(&d)
		err := d.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
	// num_bits 0 means the default width, so bits below it stay valid.
	d := sampleDoc()
	d.NumBits = 0
	d.Selectors[0].Conj[0][0] = vm.DefaultGroupBits - 1
	if err := d.Validate(); err != nil {
		t.Fatalf("default width: %v", err)
	}
}

// FuzzPolicyDecode decodes arbitrary bytes as a policy document. A
// document that validates must be safe to run — building the group-state
// vector and evaluating every selector against it must not panic — and
// must survive an encode/decode round trip unchanged.
func FuzzPolicyDecode(f *testing.F) {
	seed, err := json.Marshal(sampleDoc())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"num_bits":0,"selectors":[{"group":0,"conj":[[63]]}]}`))
	f.Add([]byte(`{"num_bits":2,"selectors":[{"group":0,"conj":[[2]]}]}`))
	f.Add([]byte(`{"num_bits":-5}`))
	f.Add([]byte(`{"selectors":[{"group":-1,"conj":[[]]}],"sites":{"a":1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Doc
		if json.Unmarshal(data, &d) != nil || d.Validate() != nil {
			return
		}
		width := d.NumBits
		if width == 0 {
			width = vm.DefaultGroupBits
		}
		// Evaluate every selector against an empty vector, then against
		// one with every named bit set, so each conjunction is walked in
		// full.
		state := bits.New(width)
		for pass := 0; pass < 2; pass++ {
			for _, s := range d.Selectors {
				halloc.BitSelector{Group: s.Group, Conj: s.Conj}.Matches(state)
				for _, conj := range s.Conj {
					for _, bit := range conj {
						state.Set(bit)
					}
				}
			}
		}
		out, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var back Doc
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, d) {
			t.Fatalf("round trip changed the document:\n got %+v\nwant %+v", back, d)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("round-tripped document no longer validates: %v", err)
		}
	})
}
