package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"waffle/internal/sim"
	"waffle/internal/trace"
)

// BugKind classifies a MemOrder bug candidate.
type BugKind uint8

const (
	// UseBeforeInit: an access may execute before the object's
	// initialization if the initialization is delayed.
	UseBeforeInit BugKind = iota
	// UseAfterFree: an access may execute after the object's disposal if
	// the access is delayed.
	UseAfterFree
	// StaleRead: a TSO-mode candidate — the pair is fork-ordered, so the
	// accesses can never reorder, but the first access is a store whose
	// buffered value the second access may observe stale if the store's
	// commit is delayed. Delay injects into the store's visibility, not
	// the thread (see Options.TSO).
	StaleRead
)

// String names the bug kind.
func (k BugKind) String() string {
	switch k {
	case UseBeforeInit:
		return "use-before-init"
	case UseAfterFree:
		return "use-after-free"
	case StaleRead:
		return "stale-read"
	default:
		return fmt.Sprintf("bugkind(%d)", uint8(k))
	}
}

// Pair is one MemOrder bug candidate {ℓ1, ℓ2} ∈ S. Delay is ℓ1 — the site
// that receives injected delays: the initialization site of a
// use-before-init candidate, or the use site of a use-after-free candidate
// (§3.1). Target is ℓ2, the operation the delay tries to push ℓ1 past.
type Pair struct {
	Delay  trace.SiteID `json:"delay"`
	Target trace.SiteID `json:"target"`
	Kind   BugKind      `json:"kind"`
	Gap    sim.Duration `json:"gap_us"` // largest observed |τ2−τ1|
	Count  int          `json:"count"`  // dynamic near-miss instances seen
}

// pairKey identifies a Pair for set membership.
type pairKey struct {
	delay, target trace.SiteID
	kind          BugKind
}

func (p Pair) key() pairKey { return pairKey{p.Delay, p.Target, p.Kind} }

// Plan is the output of trace analysis and the persistent state threaded
// between detection runs (Figure 3's "Candidate Set S" artifact plus the
// interference set I, per-site delay lengths, and per-site probabilities).
type Plan struct {
	Label  string       // program the plan was prepared for
	Window sim.Duration // near-miss δ used during analysis
	Pairs  []Pair       // the candidate set S

	// DelayLen maps each injection site ℓ1 to len(ℓ1), the largest gap
	// over all pairs delaying at ℓ1 (§4.3).
	DelayLen map[trace.SiteID]sim.Duration

	// Interfere is the symmetric interference relation I (§4.4): no delay
	// is injected at a site while a delay is in flight at any site it maps
	// to.
	Interfere map[trace.SiteID][]trace.SiteID

	// Probs carries each injection site's current injection probability,
	// decayed across detection runs and persisted between them (§5).
	Probs map[trace.SiteID]float64
}

// InjectionSites returns the distinct delay sites of the plan, sorted.
func (p *Plan) InjectionSites() []trace.SiteID {
	set := make(map[trace.SiteID]bool, len(p.Pairs))
	for _, pr := range p.Pairs {
		set[pr.Delay] = true
	}
	out := make([]trace.SiteID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LiveSites returns the number of injection sites whose probability is
// still positive, or -1 for a nil plan (no plan yet). Zero means the plan
// has fully decayed: no run injecting from it can delay, hence (§5) none
// can expose — the scale-to-zero signal of core.SiteProber.
func (p *Plan) LiveSites() int {
	if p == nil {
		return -1
	}
	n := 0
	for _, prob := range p.Probs {
		if prob > 0 {
			n++
		}
	}
	return n
}

// PairsAt returns the candidate pairs whose delay or target site is site
// (none for a nil plan).
func (p *Plan) PairsAt(site trace.SiteID) []Pair {
	if p == nil {
		return nil
	}
	var out []Pair
	for _, pr := range p.Pairs {
		if pr.Delay == site || pr.Target == site {
			out = append(out, pr)
		}
	}
	return out
}

// InterferesWith reports whether sites a and b are in the interference
// relation.
func (p *Plan) InterferesWith(a, b trace.SiteID) bool {
	for _, s := range p.Interfere[a] {
		if s == b {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the plan. Detection workers running
// concurrently each inject from their own snapshot, so probability decay
// in one run never races with another run reading the shared plan.
func (p *Plan) Clone() *Plan {
	c := &Plan{
		Label:     p.Label,
		Window:    p.Window,
		Pairs:     append([]Pair(nil), p.Pairs...),
		DelayLen:  make(map[trace.SiteID]sim.Duration, len(p.DelayLen)),
		Interfere: make(map[trace.SiteID][]trace.SiteID, len(p.Interfere)),
		Probs:     make(map[trace.SiteID]float64, len(p.Probs)),
	}
	for k, v := range p.DelayLen {
		c.DelayLen[k] = v
	}
	for k, v := range p.Interfere {
		c.Interfere[k] = append([]trace.SiteID(nil), v...)
	}
	for k, v := range p.Probs {
		c.Probs[k] = v
	}
	return c
}

// MergeFrom folds the state of a clone back into p after its runs
// completed. Probabilities only ever decay (§5), so min-merge recovers the
// furthest-decayed value per site; delay lengths only ever widen, so
// max-merge keeps the widest. Pairs and interference edges are unioned.
// The merge is idempotent and commutative, which lets concurrent workers'
// clones fold back in any order with the same result.
func (p *Plan) MergeFrom(o *Plan) {
	seen := make(map[pairKey]bool, len(p.Pairs))
	for _, pr := range p.Pairs {
		seen[pr.key()] = true
	}
	for _, pr := range o.Pairs {
		if !seen[pr.key()] {
			seen[pr.key()] = true
			p.Pairs = append(p.Pairs, pr)
		}
	}
	for k, v := range o.DelayLen {
		if cur, ok := p.DelayLen[k]; !ok || v > cur {
			if p.DelayLen == nil {
				p.DelayLen = make(map[trace.SiteID]sim.Duration)
			}
			p.DelayLen[k] = v
		}
	}
	for k, others := range o.Interfere {
		have := make(map[trace.SiteID]bool, len(p.Interfere[k]))
		for _, s := range p.Interfere[k] {
			have[s] = true
		}
		for _, s := range others {
			if !have[s] {
				if p.Interfere == nil {
					p.Interfere = make(map[trace.SiteID][]trace.SiteID)
				}
				p.Interfere[k] = append(p.Interfere[k], s)
			}
		}
	}
	for k, v := range o.Probs {
		if cur, ok := p.Probs[k]; !ok || v < cur {
			if p.Probs == nil {
				p.Probs = make(map[trace.SiteID]float64)
			}
			p.Probs[k] = v
		}
	}
}

// planJSON is the wire form of Plan.
type planJSON struct {
	Label     string              `json:"label"`
	Window    int64               `json:"window_us"`
	Pairs     []Pair              `json:"pairs"`
	DelayLen  map[string]int64    `json:"delay_len_us"`
	Interfere map[string][]string `json:"interfere"`
	Probs     map[string]float64  `json:"probs"`
}

// WriteJSON persists the plan — the paper saves S, I, the delay lengths,
// and the decayed probabilities to disk between runs (§4.4, §5).
func (p *Plan) WriteJSON(w io.Writer) error {
	pj := planJSON{
		Label:     p.Label,
		Window:    int64(p.Window),
		Pairs:     p.Pairs,
		DelayLen:  make(map[string]int64, len(p.DelayLen)),
		Interfere: make(map[string][]string, len(p.Interfere)),
		Probs:     make(map[string]float64, len(p.Probs)),
	}
	for k, v := range p.DelayLen {
		pj.DelayLen[string(k)] = int64(v)
	}
	for k, v := range p.Interfere {
		ss := make([]string, len(v))
		for i, s := range v {
			ss[i] = string(s)
		}
		sort.Strings(ss)
		pj.Interfere[string(k)] = ss
	}
	for k, v := range p.Probs {
		pj.Probs[string(k)] = v
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pj)
}

// ReadPlanJSON loads a plan written by WriteJSON.
func ReadPlanJSON(r io.Reader) (*Plan, error) {
	var pj planJSON
	if err := json.NewDecoder(r).Decode(&pj); err != nil {
		return nil, fmt.Errorf("core: decode plan: %w", err)
	}
	p := &Plan{
		Label:     pj.Label,
		Window:    sim.Duration(pj.Window),
		Pairs:     pj.Pairs,
		DelayLen:  make(map[trace.SiteID]sim.Duration, len(pj.DelayLen)),
		Interfere: make(map[trace.SiteID][]trace.SiteID, len(pj.Interfere)),
		Probs:     make(map[trace.SiteID]float64, len(pj.Probs)),
	}
	for k, v := range pj.DelayLen {
		p.DelayLen[trace.SiteID(k)] = sim.Duration(v)
	}
	for k, v := range pj.Interfere {
		ss := make([]trace.SiteID, len(v))
		for i, s := range v {
			ss[i] = trace.SiteID(s)
		}
		p.Interfere[trace.SiteID(k)] = ss
	}
	for k, v := range pj.Probs {
		p.Probs[trace.SiteID(k)] = v
	}
	return p, nil
}
