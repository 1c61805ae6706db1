package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"halo/internal/core"
	"halo/internal/isa"
	"halo/internal/policy"
	"halo/internal/sequitur"
	"halo/internal/workloads"
)

// Golden fingerprints of the layout-synthesis stage (grouping, selector
// identification, selector lowering, and the hot-data-streams policy) for
// the 11 paper programs. povray and omnetpp were recorded from the serial,
// map-based implementation at commit 0138423; the other nine at commit
// 754fc40. The dense, parallel synthesis pipeline must reproduce them bit
// for bit at every worker count — synthesis results are a function of the
// profile alone, never of the machine's core count.
var synthGoldens = map[string]string{
	"health":   "56db88c52bd7d7d5c2a96a1399602ddb4fc81191e4513909fe713cf7947605dc",
	"ft":       "2b733b6258a40e5621172f62b05184e83d905f7f2a303278387ae3ff7035ed25",
	"analyzer": "73c1c719f5742ec1ff3bc34264496b70f4662f3ba59189f4e5a82cb6024ad515",
	"ammp":     "bad5a9c0eb1f65e3bdf9269fdbdede8c0b5023a0290132515588dc9e66e023fe",
	"art":      "3b4e03e6778c4c6ee9dd5411f4ffdece27115dcff85ac4f431139426f59334a5",
	"equake":   "25df6de55b7ca58940aa12ac390abd799bd2add5df1b4463b6372ee4ae8a4168",
	"povray":   "bf643192d6d7ca0df84387566607b48be70d20a0b23bb3f894115c3db0b67a91",
	"omnetpp":  "591cd670760e41d2fc4fc86d7c06f6100a97a4ae7910b64517d50bc96b495ce6",
	"xalanc":   "0eaf202909231ed95a0811271c8a9dbcc7cc3f49769d58e17ec2f45f481b6dee",
	"leela":    "041d01daa81eac4ffe7548e78e19dfd632ce40631b783a1d8495ca947f1462c5",
	"roms":     "678efdabf8a26df102922e158983b93447d798587789afde9e598a1aa6d7eb49",
}

// Golden SEQUITUR grammars over each paper program's recorded reference
// trace (core.Profile with RecordTrace, the default training seed):
// sha256 over every live rule's number and body, recorded at commit
// 754fc40. Rule numbering is part of the fingerprint, so the digram index
// may change its layout but never which rules form or in which order.
var grammarGoldens = map[string]string{
	"health":   "f4b1f2e0e62b956f363d46333a5e178c2b450818bec3aa44cbd3cf43a9ff9859",
	"ft":       "c30dd9ed90bb8a4c3b51b82429c65e50cc1aff9ca18f5be424774d886867d660",
	"analyzer": "a860a5ea78310810376d2e92b44380bf633cc8885f903b92b6b010ff39346071",
	"ammp":     "0f174e5eaa600603f42d35d954d1e6669de8fa06fad93ffb4753ae191c99bb30",
	"art":      "eebe5232219df1735e352062d1d196d590863142c0274817f2388cc847d71363",
	"equake":   "29e4cad048708c1a28de1b7bd72349fb382259069d964a1b852c7782061a34d1",
	"povray":   "cec4638d67a257c55c5b0f8d7c397e0271421b3bd74d5214c426a0614d6816e0",
	"omnetpp":  "53492503068e869a4e541148e9a54b488c0cbced0dda856504b460bb414f2de4",
	"xalanc":   "d5ba0a0835f1214547b28191886ea02f30a47c5c1abc8638e98054faa284fff2",
	"leela":    "2cf715245de92391aa9f0a6140cdd3e5d4cd2f7e1a5dd37d8a1895e9a5681421",
	"roms":     "b000948f13fa6d97840a6d83735be0a2c16279bdb3587d4f108516019df5937b",
}

// synthesisFingerprint renders every synthesis artefact into one canonical
// string: group composition, selector DNFs, instrumented sites, the lowered
// policy document (exactly as halod serves it), and the HDS co-allocation
// policy. Everything the downstream allocator consumes is covered, so any
// behavioural drift in the refactored pipeline shows up here.
func synthesisFingerprint(t *testing.T, name string, workers int) string {
	t.Helper()
	w := workloads.MustGet(name)
	p := w.Build(w.TestScale)
	cfg := pipelineConfig(w)
	cfg.SynthesisWorkers = workers
	prof, err := core.Profile(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.OptimizeFromProfile(p, prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := core.AnalyzeHDS(opt.Profile, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", name)
	for _, g := range opt.Groups {
		fmt.Fprintf(&b, "group %d: members=%v weight=%d accesses=%d\n",
			g.ID, g.Members, g.Weight, g.Accesses)
	}
	for _, s := range opt.Selectors.Selectors {
		fmt.Fprintf(&b, "selector %s\n", s.String())
	}
	fmt.Fprintf(&b, "sites=%v residual=%d\n", opt.Selectors.Sites, opt.Selectors.Residual)
	fmt.Fprintf(&b, "numbits=%d dropped=%d\n", opt.Rewrite.NumBits, opt.DroppedConjs)

	// The policy document exactly as internal/service serves it.
	pol := policy.Doc{
		Program: p.Name,
		NumBits: opt.Rewrite.NumBits,
		Sites:   map[string]int{},
	}
	for site, bit := range opt.Rewrite.SiteBits {
		pol.Sites[site.String()] = bit
	}
	for _, sel := range opt.BitSelectors {
		pol.Selectors = append(pol.Selectors, policy.Sel{Group: sel.Group, Conj: sel.Conj})
	}
	polJSON, err := json.MarshalIndent(pol, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b.Write(polJSON)
	b.WriteByte('\n')

	fmt.Fprintf(&b, "hds %s\n", hr.String())
	for i, s := range hr.Sets {
		fmt.Fprintf(&b, "set %d: sites=%v benefit=%v streams=%d\n", i, s.Sites, s.Benefit, s.Streams)
	}
	sites := make([]isa.Addr, 0, len(hr.SiteGroups))
	for s := range hr.SiteGroups {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	for _, s := range sites {
		fmt.Fprintf(&b, "sitegroup %v -> %d\n", s, hr.SiteGroups[s])
	}
	return b.String()
}

// TestGoldenSynthesis pins the synthesis pipeline's output against the
// pre-refactor goldens at worker counts 1, 4 and 8 (the determinism
// contract: worker count changes wall-clock only, never output).
func TestGoldenSynthesis(t *testing.T) {
	for name, want := range synthGoldens {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 4, 8} {
				fp := synthesisFingerprint(t, name, workers)
				sum := sha256.Sum256([]byte(fp))
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("workers=%d: synthesis fingerprint sha256 = %s, want %s\nfingerprint:\n%s",
						workers, got, want, fp)
				}
			}
		})
	}
}

// TestGoldenGrammars pins the SEQUITUR grammar built over each paper
// program's reference trace, rule numbers included.
func TestGoldenGrammars(t *testing.T) {
	for name, want := range grammarGoldens {
		t.Run(name, func(t *testing.T) {
			w := workloads.MustGet(name)
			cfg := core.Config{}
			cfg.Profile.RecordTrace = true
			prof, err := core.Profile(w.Build(w.TestScale), cfg)
			if err != nil {
				t.Fatal(err)
			}
			g := sequitur.NewGrammar()
			for _, r := range prof.Trace {
				g.Append(int64(r.Obj))
			}
			h := sha256.New()
			for _, r := range g.Rules() {
				fmt.Fprintf(h, "%d:%v\n", r.Number, r.Body())
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("grammar sha256 = %s, want %s (%d rules, %d assigned)",
					got, want, g.NumRules(), g.NumAssigned())
			}
		})
	}
}
