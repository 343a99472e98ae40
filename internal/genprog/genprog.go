// Package genprog is a deterministic, seed-driven generator of synthetic
// programs with planted MemOrder bugs and a machine-readable ground-truth
// manifest — unbounded test input for the detection pipeline beyond the
// hand-written scenario catalog.
//
// Every generated program is a spawn tree over the sim runtime: a root
// thread forks one subtree per planted bug (optionally through relay
// threads, so racy threads sit at varying depths) plus optional
// API-noise threads for the TSVD baseline. Each bug subtree has a spawner
// thread that initializes the subtree's shared objects, then forks two
// sibling threads which perform the racy access pair at a randomized gap.
// Around the racy pair the generator plants decoys:
//
//   - private decoys: accesses to thread-local objects — never candidates
//     for any detector (same thread);
//   - fork decoys: objects initialized by the spawner before the fork and
//     used by a child — genuinely happens-before ordered, so Waffle's
//     fork-clock pruning removes them while WaffleBasic admits them and
//     wastes delays on them (§4.1's pruning story);
//   - join decoys: objects used by a child and disposed by the spawner
//     after joining it — ordered through the join, which fork clocks do
//     not track, so *both* analyzers admit them; delaying their use also
//     postpones the join and the dispose, so they can never fault.
//
// Structural zero-false-positive guarantee: every access outside the
// planted racy pairs is either thread-local or chained behind its
// object's initialization by program order or a fork edge, and every
// dispose executes exactly once on a live object. Arbitrary delays at
// arbitrary sites can therefore manifest a NullRefError only at a planted
// bug's fault site — the property the differential oracle asserts and
// FuzzGenerate fuzzes.
//
// All randomness comes from one rand.Source seeded with Config.Seed; two
// Generate calls with equal Configs yield byte-identical programs (see
// Fingerprint).
package genprog

import (
	"fmt"
	"math/rand"
	"sort"

	"waffle/internal/core"
	"waffle/internal/sim"
	"waffle/internal/trace"
)

// Config parameterizes one generated program. The zero value (plus a
// seed) is a valid mid-sized configuration; negative knobs mean zero.
type Config struct {
	// Seed drives every random choice. Equal Configs generate
	// byte-identical programs.
	Seed int64
	// Bugs is the number of planted racy pairs, each in its own subtree.
	// <= 0 means 1.
	Bugs int
	// DecoysPerThread is the number of private (thread-local) decoy uses
	// planted in each racy thread. < 0 means 0; 0 means the default 3.
	DecoysPerThread int
	// HBDecoys is the number of fork-ordered decoy objects per bug.
	// < 0 means 0; 0 means the default 2.
	HBDecoys int
	// JoinDecoys is the number of join-ordered decoy objects per bug.
	// < 0 means 0; 0 means the default 1.
	JoinDecoys int
	// APINoise is the number of threads performing thread-unsafe API
	// calls on one shared noise object (TSVD's instrumentation domain).
	// <= 0 means none.
	APINoise int
	// GapMin and GapMax bound the planted racy gap. Defaults: 2ms, 60ms.
	// Gaps must stay under the analysis window (100ms) for the pair to be
	// a candidate at all.
	GapMin, GapMax sim.Duration
	// Depth is the maximum number of spawn levels between the root and a
	// bug's spawner thread (1 = root spawns the spawner directly).
	// <= 0 means 2.
	Depth int
	// TSO plants stale-read bugs instead of order violations: programs run
	// under store-buffer semantics (the rendered SimProgram enables
	// memmodel TSO mode) and every racy pair is a fork-ordered write→read
	// whose exposure requires delaying the write's *visibility*. Manifests
	// carry the expected fence-repair pair. JoinDecoys and APINoise are
	// ignored in TSO layouts.
	TSO bool
	// Name labels the program in reports. Empty means "gen-s<Seed>".
	Name string
}

func (c Config) withDefaults() Config {
	if c.Bugs <= 0 {
		c.Bugs = 1
	}
	switch {
	case c.DecoysPerThread < 0:
		c.DecoysPerThread = 0
	case c.DecoysPerThread == 0:
		c.DecoysPerThread = 3
	case c.DecoysPerThread > 5:
		c.DecoysPerThread = 5
	}
	switch {
	case c.HBDecoys < 0:
		c.HBDecoys = 0
	case c.HBDecoys == 0:
		c.HBDecoys = 2
	case c.HBDecoys > 3:
		c.HBDecoys = 3
	}
	switch {
	case c.JoinDecoys < 0:
		c.JoinDecoys = 0
	case c.JoinDecoys == 0:
		c.JoinDecoys = 1
	case c.JoinDecoys > 2:
		c.JoinDecoys = 2
	}
	if c.APINoise < 0 {
		c.APINoise = 0
	}
	if c.GapMin <= 0 {
		c.GapMin = 2 * sim.Millisecond
	}
	if c.GapMax < c.GapMin {
		c.GapMax = 60 * sim.Millisecond
	}
	if c.GapMax < c.GapMin {
		c.GapMax = c.GapMin
	}
	if c.Depth <= 0 {
		c.Depth = 2
	}
	if c.Name == "" {
		c.Name = fmt.Sprintf("gen-s%d", c.Seed)
	}
	return c
}

// Size selects a preset scale for SizeConfig.
type Size int

const (
	// SizeSmall is one bug with light decoy cover and no API noise.
	SizeSmall Size = iota
	// SizeMedium is two bugs with medium decoy cover and two API-noise
	// threads.
	SizeMedium
	// SizeLarge is three bugs with heavy decoy cover and three API-noise
	// threads.
	SizeLarge
)

func (s Size) String() string {
	switch s {
	case SizeSmall:
		return "small"
	case SizeMedium:
		return "medium"
	case SizeLarge:
		return "large"
	}
	return fmt.Sprintf("size(%d)", int(s))
}

// SizeConfig returns the preset Config for a seed at a given scale.
func SizeConfig(seed int64, s Size) Config {
	c := Config{Seed: seed, Name: fmt.Sprintf("gen-%s-s%d", s, seed)}
	switch s {
	case SizeLarge:
		c.Bugs, c.DecoysPerThread, c.HBDecoys, c.JoinDecoys, c.APINoise = 3, 5, 3, 2, 3
	case SizeMedium:
		c.Bugs, c.DecoysPerThread, c.HBDecoys, c.JoinDecoys, c.APINoise = 2, 3, 2, 1, 2
	default:
		c.Bugs, c.DecoysPerThread, c.HBDecoys, c.JoinDecoys, c.APINoise = 1, 2, 1, 1, 0
	}
	return c
}

// TSOSizeConfig returns the preset TSO-corpus Config for a seed at a given
// scale: stale-read bugs with fence decoys (fork-ordered write→guarded-read
// pairs that are StaleRead candidates but can never fault) in place of the
// SC decoy mix.
func TSOSizeConfig(seed int64, s Size) Config {
	c := Config{Seed: seed, TSO: true, Name: fmt.Sprintf("gen-tso-%s-s%d", s, seed)}
	switch s {
	case SizeLarge:
		c.Bugs, c.DecoysPerThread, c.HBDecoys = 3, 5, 3
	case SizeMedium:
		c.Bugs, c.DecoysPerThread, c.HBDecoys = 2, 3, 2
	default:
		c.Bugs, c.DecoysPerThread, c.HBDecoys = 1, 2, 1
	}
	return c
}

// opCode is one instrumented action in the generated script.
type opCode uint8

const (
	opInit opCode = iota
	opUse
	opDispose
	opAPIRead
	opAPIWrite
	// opUseGuard always renders as UseIfLive regardless of arming: a read
	// that tolerates both absent and stale state. TSO layouts use it for
	// fence-decoy reads, which may genuinely observe a buffered (stale)
	// store when the injector delays the decoy write's visibility.
	opUseGuard
)

func (c opCode) String() string {
	switch c {
	case opInit:
		return "init"
	case opUse:
		return "use"
	case opDispose:
		return "dispose"
	case opAPIRead:
		return "apiread"
	case opAPIWrite:
		return "apiwrite"
	case opUseGuard:
		return "useguard"
	}
	return "?"
}

// op is one scheduled access. At is an absolute virtual time: the thread
// sleeps until At before performing the access, which makes planted gaps
// independent of instrumentation overhead accumulated earlier in the
// thread (each access self-corrects its position). At < 0 means
// "immediately", used for post-join epilogue ops.
type op struct {
	Code opCode
	At   sim.Time
	Obj  int // index into Program.objs
	Site trace.SiteID
	Dur  sim.Duration // API-call window length
	Bug  int          // planted-bug index when this op is the guarded probe; -1 otherwise
}

// threadSpec is one node of the spawn tree. Execution order: Pre ops
// (timed), spawn Children, Ops (timed), join Children, Post ops
// (immediate). Pre runs before the forks so Pre initializations are in
// every child's fork clock; Post runs after the joins so Post disposes
// are really ordered after child uses.
type threadSpec struct {
	Name     string
	Children []int
	Pre      []op
	Ops      []op
	Post     []op
}

// Program is one generated program. It is immutable after Generate except
// for the arming mask, which ArmOnly/ArmAll/DisarmAll replace wholesale
// on shallow copies — variants of the same Program share the script and
// can execute concurrently.
type Program struct {
	cfg     Config
	threads []threadSpec
	objs    []string // object names, index = op.Obj
	bugs    []PlantedBug
	armed   []bool
	// fenceAfter, when set on a variant (WithFence), drains the acting
	// thread's store buffer immediately after every access at that site.
	fenceAfter trace.SiteID
	lastAt     sim.Time // latest scheduled op time
}

// band spacing keeps bug subtrees far enough apart that no cross-subtree
// access pair can fall inside the 100ms analysis window even after
// worst-case decoy delays, and lead is how long before its racy instant a
// subtree's spawner starts initializing shared objects.
const (
	firstBandAt = 60 * sim.Millisecond
	bandSpacing = 250 * sim.Millisecond
	spawnerLead = 36 * sim.Millisecond
)

// Generate builds the program for cfg. The same cfg always yields the
// same program, byte for byte.
func Generate(cfg Config) *Program {
	cfg = cfg.withDefaults()
	g := &gen{
		cfg: cfg,
		rng: sim.NewRand(cfg.Seed),
		p:   &Program{cfg: cfg},
	}
	g.addThread("main") // index 0

	for b := 0; b < cfg.Bugs; b++ {
		if cfg.TSO {
			g.plantTSOBug(b)
		} else {
			g.plantBug(b)
		}
	}
	if !cfg.TSO {
		g.apiNoise()
	}

	// Randomize the root's spawn order: thread IDs (and so tie-breaking
	// and fork-clock component order) vary across seeds without touching
	// any happens-before relation.
	root := &g.p.threads[0]
	g.rng.Shuffle(len(root.Children), func(i, j int) {
		root.Children[i], root.Children[j] = root.Children[j], root.Children[i]
	})

	// Threads execute their op lists in order; emission order interleaves
	// concerns (decoy traffic, the racy pair, trailing uses), so sort by
	// scheduled time. Within a thread all times are distinct, keeping the
	// order — and the generated program — fully deterministic.
	for i := range g.p.threads {
		t := &g.p.threads[i]
		sort.SliceStable(t.Pre, func(a, b int) bool { return t.Pre[a].At < t.Pre[b].At })
		sort.SliceStable(t.Ops, func(a, b int) bool { return t.Ops[a].At < t.Ops[b].At })
	}

	g.p.armed = make([]bool, len(g.p.bugs))
	return g.p
}

type gen struct {
	cfg Config
	rng *rand.Rand
	p   *Program
}

func (g *gen) addThread(name string) int {
	g.p.threads = append(g.p.threads, threadSpec{Name: name})
	return len(g.p.threads) - 1
}

func (g *gen) addObj(name string) int {
	g.p.objs = append(g.p.objs, name)
	return len(g.p.objs) - 1
}

func (g *gen) note(at sim.Time) sim.Time {
	if at > g.p.lastAt {
		g.p.lastAt = at
	}
	return at
}

// plantBug emits bug b's subtree: [relay →] spawner → {left, right}.
// The racy pair is left@At vs right@At+Gap:
//
//	use-before-init: left inits the object, right uses it (the probe);
//	use-after-free:  left uses it (the probe), right disposes it, with
//	                 the initialization fork-ordered in the spawner.
//
// In both kinds the delay site of the resulting candidate pair is left's
// access and the fault site is the probe's site.
func (g *gen) plantBug(b int) {
	cfg := g.cfg
	at := sim.Time(firstBandAt + sim.Duration(b)*bandSpacing +
		sim.Duration(g.rng.Int63n(10))*sim.Millisecond)
	gapSteps := int64(cfg.GapMax-cfg.GapMin)/int64(100*sim.Microsecond) + 1
	gap := cfg.GapMin + sim.Duration(g.rng.Int63n(gapSteps))*100*sim.Microsecond
	uaf := g.rng.Intn(2) == 1

	pfx := fmt.Sprintf("b%d", b)
	spawner := g.addThread(pfx + ".spawn")
	left := g.addThread(pfx + ".left")
	right := g.addThread(pfx + ".right")
	g.p.threads[spawner].Children = []int{left, right}

	// Vary the racy pair's depth: optionally interpose relay threads
	// between the root and the spawner.
	top := spawner
	for d := 1 + g.rng.Intn(cfg.Depth); d > 1; d-- {
		relay := g.addThread(fmt.Sprintf("%s.relay%d", pfx, d-1))
		g.p.threads[relay].Children = []int{top}
		top = relay
	}
	root := &g.p.threads[0]
	root.Children = append(root.Children, top)

	obj := g.addObj(pfx + ".obj")
	kind := core.UseBeforeInit
	if uaf {
		kind = core.UseAfterFree
	}

	// Spawner preamble: shared-object initializations, 2ms apart,
	// finishing well before the children's first scheduled access. Each
	// init precedes the forks in program order, so it is in both
	// children's fork clocks: Waffle prunes any pair it forms, while
	// WaffleBasic admits pairs within its window — decoy candidates whose
	// delays shift the forks (and the whole subtree) together, never
	// reordering an access before an initialization.
	preAt := at.Add(-spawnerLead)
	pre := func(code opCode, o int, site string) {
		sp := &g.p.threads[spawner]
		sp.Pre = append(sp.Pre, op{Code: code, At: g.note(preAt), Obj: o, Site: trace.SiteID(site), Bug: -1})
		preAt = preAt.Add(2 * sim.Millisecond)
	}
	if uaf {
		pre(opInit, obj, pfx+".obj.init")
	}
	hb := make([]int, cfg.HBDecoys)
	for j := range hb {
		hb[j] = g.addObj(fmt.Sprintf("%s.hb%d", pfx, j))
		pre(opInit, hb[j], fmt.Sprintf("%s.hb%d.init", pfx, j))
	}
	jd := make([]int, cfg.JoinDecoys)
	for j := range jd {
		jd[j] = g.addObj(fmt.Sprintf("%s.jd%d", pfx, j))
		pre(opInit, jd[j], fmt.Sprintf("%s.jd%d.init", pfx, j))
	}

	// Private decoy traffic: one thread-local object per racy thread,
	// initialized and used only there. Same-thread accesses never form
	// candidates for any detector; they pad the trace and the site space.
	g.privateDecoys(left, pfx+".pa", at.Add(-22*sim.Millisecond), 3*sim.Millisecond, at.Add(gap+6*sim.Millisecond))
	g.privateDecoys(right, pfx+".pb", at.Add(-21*sim.Millisecond), 2*sim.Millisecond, 0)

	// Fork-decoy uses in the right (target) thread, within the window of
	// their spawner-side inits.
	rt := &g.p.threads[right]
	for j, o := range hb {
		useAt := at.Add(sim.Duration(-9+2*j) * sim.Millisecond)
		rt.Ops = append(rt.Ops, op{Code: opUse, At: g.note(useAt), Obj: o,
			Site: trace.SiteID(fmt.Sprintf("%s.hb%d.use", pfx, j)), Bug: -1})
	}

	// The racy pair itself. The probe (the access that faults when the
	// delay wins the race) renders as Use when the bug is armed and
	// UseIfLive when not; both record an identical KindUse event, so the
	// trace — and every plan derived from it — is arming-invariant.
	lt := &g.p.threads[left]
	delaySite := trace.SiteID(pfx + ".obj.init")
	targetSite := trace.SiteID(pfx + ".obj.use")
	faultSite := targetSite
	if uaf {
		delaySite = trace.SiteID(pfx + ".obj.use")
		targetSite = trace.SiteID(pfx + ".obj.dispose")
		faultSite = delaySite
		lt.Ops = append(lt.Ops, op{Code: opUse, At: g.note(at), Obj: obj, Site: delaySite, Bug: b})
		rt.Ops = append(rt.Ops, op{Code: opDispose, At: g.note(at.Add(gap)), Obj: obj, Site: targetSite, Bug: -1})
	} else {
		lt.Ops = append(lt.Ops, op{Code: opInit, At: g.note(at), Obj: obj, Site: delaySite, Bug: -1})
		rt.Ops = append(rt.Ops, op{Code: opUse, At: g.note(at.Add(gap)), Obj: obj, Site: targetSite, Bug: b})
	}

	// Join-decoy uses after the racy access (so delays at their sites
	// cannot shift it), disposed by the spawner only after joining both
	// children.
	sp := &g.p.threads[spawner]
	for j, o := range jd {
		useAt := at.Add(gap + sim.Duration(3+3*j)*sim.Millisecond)
		rt.Ops = append(rt.Ops, op{Code: opUse, At: g.note(useAt), Obj: o,
			Site: trace.SiteID(fmt.Sprintf("%s.jd%d.use", pfx, j)), Bug: -1})
		sp.Post = append(sp.Post, op{Code: opDispose, At: -1, Obj: o,
			Site: trace.SiteID(fmt.Sprintf("%s.jd%d.dispose", pfx, j)), Bug: -1})
	}

	g.p.bugs = append(g.p.bugs, PlantedBug{
		Index:       b,
		Kind:        kind,
		Obj:         g.p.objs[obj],
		DelaySite:   delaySite,
		TargetSite:  targetSite,
		FaultSite:   faultSite,
		Gap:         gap,
		At:          at,
		DelayThread: g.p.threads[left].Name,
		FaultThread: g.p.threads[left].Name,
	})
	if !uaf {
		g.p.bugs[b].FaultThread = g.p.threads[right].Name
	}
}

// TSO banding. Stale-read subtrees sit on a wider grid because the
// dispose flavor plants its initialization tsoEarlyInitLead before the
// racy instant: far enough that the (init, probe) distance exceeds the
// 100ms analysis window, so the dispose alone is blamed for the stale
// read, yet still inside the band.
const (
	tsoFirstBandAt   = 220 * sim.Millisecond
	tsoBandSpacing   = 400 * sim.Millisecond
	tsoEarlyInitLead = 150 * sim.Millisecond
)

// plantTSOBug emits bug b's subtree for a TSO layout: [relay →] writer →
// reader. The writer performs the racy write — an Init, or a Dispose of
// an object initialized tsoEarlyInitLead earlier — in its preamble and
// only then forks the reader, so the pair is fork-clock ORDERED and can
// never invert under sequential consistency: no thread delay exposes it.
// Exposure requires delaying the write's *visibility*: the injector's
// flush delay keeps the store in the writer's buffer past the reader's
// probe, which then observes the stale pre-write state. The probe
// renders as UseFresh when armed (faults iff stale) and UseIfLive when
// not; both record KindUse, keeping traces arming-invariant.
//
// Around the pair:
//
//   - fence decoys: hb objects initialized in the writer's preamble and
//     read by the reader through guarded reads placed after the probe —
//     more ordered write→read StaleRead candidates that soak up flush
//     delays but are structurally unable to fault;
//   - private decoys: thread-local reader traffic squeezed between the
//     fork and the probe (sub-2ms spacing fits under the minimum gap).
func (g *gen) plantTSOBug(b int) {
	cfg := g.cfg
	at := sim.Time(tsoFirstBandAt + sim.Duration(b)*tsoBandSpacing +
		sim.Duration(g.rng.Int63n(10))*sim.Millisecond)
	gapSteps := int64(cfg.GapMax-cfg.GapMin)/int64(100*sim.Microsecond) + 1
	gap := cfg.GapMin + sim.Duration(g.rng.Int63n(gapSteps))*100*sim.Microsecond
	disposeFlavor := g.rng.Intn(2) == 1

	pfx := fmt.Sprintf("b%d", b)
	writer := g.addThread(pfx + ".writer")
	reader := g.addThread(pfx + ".reader")
	g.p.threads[writer].Children = []int{reader}

	top := writer
	for d := 1 + g.rng.Intn(cfg.Depth); d > 1; d-- {
		relay := g.addThread(fmt.Sprintf("%s.relay%d", pfx, d-1))
		g.p.threads[relay].Children = []int{top}
		top = relay
	}
	root := &g.p.threads[0]
	root.Children = append(root.Children, top)

	obj := g.addObj(pfx + ".obj")
	wt := &g.p.threads[writer]

	// Fence-decoy initializations, 2ms apart, ending just before the racy
	// write. Their guarded reads land after the probe, still within the
	// analysis window of these inits.
	hb := make([]int, cfg.HBDecoys)
	preAt := at.Add(-2 * sim.Duration(cfg.HBDecoys) * sim.Millisecond)
	for j := range hb {
		hb[j] = g.addObj(fmt.Sprintf("%s.hb%d", pfx, j))
		wt.Pre = append(wt.Pre, op{Code: opInit, At: g.note(preAt), Obj: hb[j],
			Site: trace.SiteID(fmt.Sprintf("%s.hb%d.init", pfx, j)), Bug: -1})
		preAt = preAt.Add(2 * sim.Millisecond)
	}

	// The racy write.
	delaySite := trace.SiteID(pfx + ".obj.init")
	if disposeFlavor {
		wt.Pre = append(wt.Pre, op{Code: opInit, At: g.note(at.Add(-tsoEarlyInitLead)),
			Obj: obj, Site: delaySite, Bug: -1})
		delaySite = trace.SiteID(pfx + ".obj.dispose")
		wt.Pre = append(wt.Pre, op{Code: opDispose, At: g.note(at), Obj: obj, Site: delaySite, Bug: -1})
	} else {
		wt.Pre = append(wt.Pre, op{Code: opInit, At: g.note(at), Obj: obj, Site: delaySite, Bug: -1})
	}

	// Reader: private decoys between fork and probe, the probe at the
	// planted gap, then the fence-decoy reads.
	rt := &g.p.threads[reader]
	pd := g.addObj(pfx + ".pa")
	pdAt := at.Add(130 * sim.Microsecond)
	rt.Ops = append(rt.Ops, op{Code: opInit, At: g.note(pdAt), Obj: pd,
		Site: trace.SiteID(pfx + ".pa.init"), Bug: -1})
	for j := 0; j < cfg.DecoysPerThread; j++ {
		pdAt = pdAt.Add(330 * sim.Microsecond)
		rt.Ops = append(rt.Ops, op{Code: opUse, At: g.note(pdAt), Obj: pd,
			Site: trace.SiteID(fmt.Sprintf("%s.pa.u%d", pfx, j)), Bug: -1})
	}
	readSite := trace.SiteID(pfx + ".obj.read")
	rt.Ops = append(rt.Ops, op{Code: opUse, At: g.note(at.Add(gap)), Obj: obj, Site: readSite, Bug: b})
	for j, o := range hb {
		readAt := at.Add(gap + sim.Duration(1+2*j)*sim.Millisecond)
		rt.Ops = append(rt.Ops, op{Code: opUseGuard, At: g.note(readAt), Obj: o,
			Site: trace.SiteID(fmt.Sprintf("%s.hb%d.read", pfx, j)), Bug: -1})
	}

	g.p.bugs = append(g.p.bugs, PlantedBug{
		Index:       b,
		Kind:        core.StaleRead,
		Obj:         g.p.objs[obj],
		DelaySite:   delaySite,
		TargetSite:  readSite,
		FaultSite:   readSite,
		Gap:         gap,
		At:          at,
		DelayThread: g.p.threads[writer].Name,
		FaultThread: g.p.threads[reader].Name,
		FenceAfter:  delaySite,
		FenceBefore: readSite,
	})
}

// privateDecoys emits a thread-local object with an init and
// cfg.DecoysPerThread uses starting at start, spaced apart; a trailing
// use is added at tail when nonzero.
func (g *gen) privateDecoys(thread int, name string, start sim.Time, space sim.Duration, tail sim.Time) {
	o := g.addObj(name)
	t := &g.p.threads[thread]
	t.Ops = append(t.Ops, op{Code: opInit, At: g.note(start), Obj: o, Site: trace.SiteID(name + ".init"), Bug: -1})
	at := start.Add(2 * sim.Millisecond)
	for j := 0; j < g.cfg.DecoysPerThread; j++ {
		t.Ops = append(t.Ops, op{Code: opUse, At: g.note(at), Obj: o,
			Site: trace.SiteID(fmt.Sprintf("%s.u%d", name, j)), Bug: -1})
		at = at.Add(space)
	}
	if tail > 0 {
		t.Ops = append(t.Ops, op{Code: opUse, At: g.note(tail), Obj: o, Site: trace.SiteID(name + ".tail"), Bug: -1})
	}
}

// apiNoise emits cfg.APINoise root-child threads sharing one object they
// touch only through thread-unsafe API calls — TSVD's instrumentation
// domain, invisible to the MemOrder analyzers (API kinds form no
// near-miss pairs, and the object is never Init/Use/Disposed). Call
// windows are staggered so no two overlap in an undelayed run: TSVs
// manifest only when TSVD's own delays stretch a thread into another's
// window, and TSVs never fault, so the noise cannot violate the zero-FP
// oracle.
func (g *gen) apiNoise() {
	n := g.cfg.APINoise
	if n <= 0 {
		return
	}
	obj := g.addObj("api.obj")
	const calls = 8
	for i := 0; i < n; i++ {
		// addThread may grow g.p.threads; re-index the root (and the new
		// thread) after every call rather than holding a pointer across it.
		th := g.addThread(fmt.Sprintf("api%d", i))
		root := &g.p.threads[0]
		root.Children = append(root.Children, th)
		t := &g.p.threads[th]
		for k := 0; k < calls; k++ {
			at := sim.Time(40*sim.Millisecond +
				sim.Duration(k)*17*sim.Millisecond +
				sim.Duration(i)*5*sim.Millisecond)
			code := opAPIRead
			if (i+k)%2 == 0 {
				code = opAPIWrite
			}
			t.Ops = append(t.Ops, op{Code: code, At: g.note(at), Obj: obj,
				Site: trace.SiteID(fmt.Sprintf("api%d.c%d", i, k)), Dur: 3 * sim.Millisecond, Bug: -1})
		}
	}
}

// Name returns the program's label.
func (p *Program) Name() string { return p.cfg.Name }

// Config returns the (defaulted) generating configuration.
func (p *Program) Config() Config { return p.cfg }

// Bugs returns the planted ground truth.
func (p *Program) Bugs() []PlantedBug { return p.bugs }

// Threads reports the spawn-tree size (root included).
func (p *Program) Threads() int { return len(p.threads) }

// Objects reports the number of shared/decoy objects allocated per run.
func (p *Program) Objects() int { return len(p.objs) }

// arming returns a shallow copy of p with the given mask.
func (p *Program) arming(mask []bool) *Program {
	cp := *p
	cp.armed = mask
	return &cp
}

// ArmOnly returns a variant with only bug i armed: its probe faults when
// the race manifests, every other probe stays guarded. The trace is
// identical across variants, so plans and candidate sets are too.
func (p *Program) ArmOnly(i int) *Program {
	mask := make([]bool, len(p.bugs))
	if i >= 0 && i < len(mask) {
		mask[i] = true
	}
	return p.arming(mask)
}

// ArmAll returns a variant with every probe faulting.
func (p *Program) ArmAll() *Program {
	mask := make([]bool, len(p.bugs))
	for i := range mask {
		mask[i] = true
	}
	return p.arming(mask)
}

// DisarmAll returns a variant with every probe guarded — the zero-FP
// control: no delay schedule whatsoever may fault it.
func (p *Program) DisarmAll() *Program {
	return p.arming(make([]bool, len(p.bugs)))
}

// WithFence returns a variant that executes a store-buffer fence
// immediately after every access at the given site — the repair a
// FenceProposal names. Applying the proposed fence and re-running the
// exposing schedule must not fault: the oracle's repair-verification
// step. No-op outside TSO mode (the fence drains an empty buffer).
func (p *Program) WithFence(after trace.SiteID) *Program {
	cp := *p
	cp.fenceAfter = after
	return &cp
}
