package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"waffle/internal/core"
	"waffle/internal/genprog"
	"waffle/internal/obs"
	"waffle/internal/server"
	"waffle/internal/stats"
)

// roundPrograms is the corpus size of each of a round's two jobs.
const roundPrograms = 120

// replayRounds is how many rounds the direct replay covers: enough
// disarmed controls, one per program, for a p99 with its ten-sample tail.
const replayRounds = (1000 + 2*roundPrograms - 1) / (2 * roundPrograms)

// corpusSeed is the corpus base seed of a round's SC or TSO job.
func corpusSeed(seed int64, round int, tso bool) int64 {
	s := seed*10_000_019 + int64(round)*100_003
	if tso {
		s += 50_001
	}
	return s
}

// jobSpec is one round's SC or TSO corpus job, with the server's default
// budgets and engine.
func jobSpec(seed int64, round int, tso bool) server.JobSpec {
	return server.JobSpec{Corpus: server.CorpusSpec{
		Seed: corpusSeed(seed, round, tso), Programs: roundPrograms, Size: "mixed", TSO: tso,
	}}
}

// arrival is one committed result as the long-poll client saw it.
type arrival struct {
	res *server.ProgramResult
	at  time.Time
}

// jobRun is one job's submission and drained results.
type jobRun struct {
	spec     server.JobSpec // as the manager defaulted it
	start    time.Time
	arrivals []arrival
}

// runRound submits the round's two jobs to m and drains both through
// Manager.Results, one long-poll client per job.
func runRound(m *server.Manager, seed int64, round int) ([2]*jobRun, error) {
	var jobs [2]*jobRun
	var errs [2]error
	var wg sync.WaitGroup
	for k, tso := range []bool{false, true} {
		st, err := m.Submit(jobSpec(seed, round, tso))
		if err != nil {
			return jobs, fmt.Errorf("submit round %d job %d: %w", round, k, err)
		}
		jr := &jobRun{spec: st.Spec, start: time.Now()}
		jobs[k] = jr
		wg.Add(1)
		go func(k int, id string) {
			defer wg.Done()
			after := 0
			for {
				page, err := m.Results(context.Background(), id, after, 10*time.Second)
				if err != nil {
					errs[k] = fmt.Errorf("results of %s: %w", id, err)
					return
				}
				now := time.Now()
				for _, res := range page.Results {
					jr.arrivals = append(jr.arrivals, arrival{res, now})
				}
				after = page.Next
				if page.Done {
					if page.State != server.StateCompleted {
						errs[k] = fmt.Errorf("job %s ended %s", id, page.State)
					}
					return
				}
			}
		}(k, st.ID)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return jobs, err
		}
	}
	return jobs, nil
}

// newManager opens a manager on the journal at path, which must hold no
// records.
func newManager(path string, reg *obs.Registry) (*server.Manager, error) {
	return server.New(server.Options{Journal: path, Workers: clients(), Metrics: reg})
}

// drain stops a manager, closing its journal.
func drain(m *server.Manager) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return m.Drain(ctx)
}

// campaignPass is the timed part of the workload: rounds of two jobs on
// one manager until the time is spent.
type campaignPass struct {
	rounds   [][2]*jobRun
	wall     time.Duration
	programs int
	sessions int
	runs     int
}

func runCampaignPass(m *server.Manager, seed int64, seconds time.Duration, r *report) (*campaignPass, error) {
	p := &campaignPass{}
	start := time.Now()
	for round := 0; round < replayRounds || time.Since(start) < seconds; round++ {
		jobs, err := runRound(m, seed, round)
		if err != nil {
			return p, err
		}
		p.rounds = append(p.rounds, jobs)
		for _, j := range jobs {
			for _, a := range j.arrivals {
				reason := ""
				switch {
				case len(a.res.Violations) > 0:
					reason = a.res.Violations[0]
				case len(a.res.Outcomes) != a.res.Bugs:
					reason = fmt.Sprintf("%s: %d outcomes for %d bugs", a.res.Program, len(a.res.Outcomes), a.res.Bugs)
				}
				for _, oc := range a.res.Outcomes {
					if oc.Runs == 0 && reason == "" {
						reason = fmt.Sprintf("%s: planted bug %d not exposed", a.res.Program, oc.Bug)
					}
				}
				r.op(reason)
				p.programs++
				p.sessions += len(a.res.Outcomes) + 1
				p.runs += a.res.RunsUsed
			}
		}
	}
	p.wall = time.Since(start)
	return p, nil
}

// exposureTotals are the deterministic figures of one round's results.
type exposureTotals struct {
	bugs, runs, delays int
}

func roundTotals(jobs [2]*jobRun) exposureTotals {
	var t exposureTotals
	for _, j := range jobs {
		for _, a := range j.arrivals {
			for _, oc := range a.res.Outcomes {
				t.bugs++
				t.runs += oc.Runs
				t.delays += oc.Delays
			}
		}
	}
	return t
}

// replayTotals are the deterministic figures of a direct replay's
// disarmed controls: the campaign's bug-free tests.
type replayTotals struct {
	base, prep, detect int64
	engine             engineTotals // armed sessions and controls
}

// replay drives the first replayRounds rounds' programs directly through
// core.Session, the same sessions server.Manager ran: same generator
// configs, seeds and budgets. It checks every exposure against the
// server's result, and times each session (disarmed controls are the
// campaign's bug-free tests) and each program run.
func replay(rounds [][2]*jobRun, r *report, layers *simLayers) (replayTotals, samples, samples) {
	var tot replayTotals
	var tests, runs samples
	var jobs []*jobRun
	for _, round := range rounds[:replayRounds] {
		jobs = append(jobs, round[:]...)
	}
	for _, j := range jobs {
		spec := j.spec
		for _, a := range j.arrivals {
			i := a.res.Index
			cfg := genprog.SizeConfig(spec.Corpus.Seed+int64(i), genprog.Size(i%3))
			if spec.Corpus.TSO {
				cfg = genprog.TSOSizeConfig(spec.Corpus.Seed+int64(i), genprog.Size(i%3))
			}
			t0 := time.Now()
			p := genprog.Generate(cfg)
			if layers != nil {
				layers.generate = append(layers.generate, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			session := func(prog *genprog.Program, budget int, seed int64, control bool) *core.Outcome {
				wf := core.NewWaffle(core.Options{TSO: spec.Corpus.TSO, Metrics: layers.registry()})
				tp := &timedProgram{Program: prog.Prog()}
				var tool core.Tool = wf
				finish := func() {}
				if layers != nil {
					tool, finish = layers.session(tp, wf)
				}
				s := &core.Session{Prog: tp, Tool: tool, MaxRuns: budget, BaseSeed: seed, Metrics: layers.registry()}
				t0 := time.Now()
				out := s.Expose()
				d := time.Since(t0)
				finish()
				tot.engine.add(wf, out)
				runs = append(runs, tp.runsMS()...)
				if control && len(out.Runs) >= 2 {
					tests = append(tests, float64(d.Nanoseconds())/1e6)
					tot.base += int64(out.BaseTime)
					tot.prep += int64(out.Runs[0].End)
					tot.detect += int64(out.Runs[1].End)
				}
				return out
			}
			for k, bug := range p.Manifest().Bugs {
				out := session(p.ArmOnly(bug.Index), spec.MaxRuns, spec.Corpus.Seed+int64(i)*1_000_003+int64(bug.Index)*1009+1, false)
				if got, want := out.RunsToExpose(), a.res.Outcomes[k].Runs; got != want {
					r.breach("%s bug %d: direct session exposed in %d runs, server in %d", p.Name(), bug.Index, got, want)
				}
			}
			out := session(p.DisarmAll(), spec.DisarmRuns, spec.Corpus.Seed+int64(i)*1_000_003+500_009, true)
			if out.Bug != nil {
				r.breach("%s: disarmed replay reported a bug", p.Name())
			}
		}
	}
	return tot, tests, runs
}

// runCampaign is the campaign workload: generated SC and TSO corpora as
// two jobs of one in-process server.Manager, journaled to the run's
// scratch directory.
func runCampaign(cfg config, r *report) {
	dir := cfg.tmp
	var (
		m   *server.Manager
		err error
	)
	// Every build opens the same empty journal, created once untimed: file
	// creation and deletion took one to three times as long as the rest of
	// server.New, and varied from run to run.
	journal := filepath.Join(dir, "journal.jsonl")
	if err := os.WriteFile(journal, nil, 0o644); err != nil {
		r.breach("campaign: %v", err)
		return
	}
	r.set("setup_s", "s", timeSetup(func() func() {
		if m, err = newManager(journal, nil); err != nil {
			r.breach("campaign: server.New: %v", err)
			return nil
		}
		built := m
		return func() {
			if err := drain(built); err != nil {
				r.breach("campaign: drain: %v", err)
			}
		}
	}))
	if m == nil {
		return
	}
	pass, err := runCampaignPass(m, cfg.seed, cfg.seconds, r)
	if err := drain(m); err != nil {
		r.breach("campaign: drain: %v", err)
	}
	if err != nil {
		r.breach("campaign: %v", err)
		return
	}
	first := roundTotals(pass.rounds[0])
	tot, tests, runs := replay(pass.rounds, r, nil)

	pps := float64(pass.programs) / pass.wall.Seconds()
	r.set("programs_per_s", "1/s", pps)
	r.set("tests_per_s", "1/s", pps)                                                     // one disarmed control session per program
	r.set("requests_per_s", "1/s", float64(pass.runs+pass.sessions)/pass.wall.Seconds()) // RunsUsed plus each session's baseline
	p50, p99 := tests.quantiles()
	r.set("test_p50_ms", "ms", p50)
	r.set("test_p99_ms", "ms", p99)
	p50, p99 = runs.quantiles()
	r.set("request_p50_ms", "ms", p50)
	r.set("request_p99_ms", "ms", p99)
	r.set("overhead_prep_pct", "%", overheadPct(tot.prep, tot.base))
	r.set("overhead_detect_pct", "%", overheadPct(tot.detect, tot.base))
	r.set("delays_injected", "count", float64(first.delays))
	r.set("runs_to_expose_mean", "runs", float64(first.runs)/float64(max(1, first.bugs)))

	if !cfg.trace {
		return
	}
	tracedCampaign(cfg, dir, first, tot, pps, r)
}

// tracedCampaign repeats the measurement with a registry on the manager,
// re-journals the first round's results into a second journal, and
// replays the first replayRounds rounds through the traced session
// wrappers.
func tracedCampaign(cfg config, dir string, want exposureTotals, wantReplay replayTotals, untracedPPS float64, r *report) {
	layers := newSimLayers()
	m, err := newManager(filepath.Join(dir, "traced.jsonl"), layers.reg)
	if err != nil {
		r.breach("campaign: server.New: %v", err)
		return
	}
	probe := startRuntimeProbe()
	pass, err := runCampaignPass(m, cfg.seed, cfg.seconds, r)
	probe.finish(r, pass.programs)
	if err := drain(m); err != nil {
		r.breach("campaign: drain: %v", err)
	}
	if err != nil {
		r.breach("campaign: %v", err)
		return
	}
	if got := roundTotals(pass.rounds[0]); got != want {
		r.breach("traced campaign totals %+v differ from untraced %+v", got, want)
	}
	tracedOverhead(r, untracedPPS, float64(pass.programs)/pass.wall.Seconds())

	// Long-poll view: gaps between successive results of a job, and each
	// job's own commit rate.
	var gaps samples
	var jobWall [2]time.Duration
	var jobPrograms [2]int
	for _, jobs := range pass.rounds {
		for k, j := range jobs {
			prev := j.start
			for _, a := range j.arrivals {
				gaps = append(gaps, float64(a.at.Sub(prev).Nanoseconds())/1e6)
				prev = a.at
			}
			jobWall[k] += prev.Sub(j.start)
			jobPrograms[k] += len(j.arrivals)
		}
	}
	p50, p99 := gaps.quantiles()
	r.set("server.commit_gap_ms_p50", "ms", p50)
	r.set("server.commit_gap_ms_p99", "ms", p99)
	r.set("memmodel.sc_programs_per_s", "1/s", float64(jobPrograms[0])/jobWall[0].Seconds())
	r.set("memmodel.tso_programs_per_s", "1/s", float64(jobPrograms[1])/jobWall[1].Seconds())
	snap := layers.reg.Snapshot()
	r.set("sched.jobs", "count", float64(snap.Counters["sched.jobs"]))
	r.set("sched.waves", "count", float64(snap.Counters["sched.waves"]))
	journalLayer(dir, pass.rounds[0], r)

	// Replay into a fresh registry so the session-layer counters cover
	// exactly the replayed sessions.
	layers = newSimLayers()
	if got, _, _ := replay(pass.rounds, r, layers); got != wantReplay {
		r.breach("traced replay totals %+v differ from untraced %+v", got, wantReplay)
	}
	layers.report(r)
	layers.checkCounters(r, wantReplay.engine)
	r.set("genprog.generate_us", "us", stats.MedianFloat(layers.generate))
}

// journalLayer times server.Journal.Append of one round's result records
// into a second journal.
func journalLayer(dir string, jobs [2]*jobRun, r *report) {
	path := filepath.Join(dir, "replay.jsonl")
	j, _, err := server.OpenJournal(path)
	if err != nil {
		r.breach("campaign: open journal: %v", err)
		return
	}
	var lat samples
	n := 0
	for k, jr := range jobs {
		for _, a := range jr.arrivals {
			rec := server.Record{Type: "result", Job: fmt.Sprintf("job-%d", k+1), Index: a.res.Index, Result: a.res}
			t0 := time.Now()
			err := j.Append(rec)
			lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
			if err != nil {
				r.breach("campaign: journal append: %v", err)
				break
			}
			n++
		}
	}
	if err := j.Close(); err != nil {
		r.breach("campaign: journal close: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil || n == 0 {
		r.breach("campaign: journal stat: %v (%d records)", err, n)
		return
	}
	r.set("server.journal_append_us", "us", stats.MedianFloat(lat))
	r.set("server.journal_bytes_per_program", "B", float64(st.Size())/float64(n))
}
