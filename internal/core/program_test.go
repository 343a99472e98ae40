package core_test

import (
	"testing"

	"waffle/internal/core"
	"waffle/internal/genprog"
)

// smallPrograms are the runs the allocation gate and BenchmarkSimProgramRun
// execute: a small generated SC program and a small generated TSO program,
// every planted bug armed, run without a hook.
func smallPrograms() map[string]*core.SimProgram {
	return map[string]*core.SimProgram{
		"sc":  genprog.Generate(genprog.SizeConfig(11, genprog.SizeSmall)).ArmAll().Prog(),
		"tso": genprog.Generate(genprog.TSOSizeConfig(12, genprog.SizeSmall)).ArmAll().Prog(),
	}
}

// BenchmarkSimProgramRun times one whole simulated run through
// SimProgram.Execute, set-up and release included. Run with -benchmem:
// B/op and allocs/op show what a run costs the collector.
func BenchmarkSimProgramRun(b *testing.B) {
	progs := smallPrograms()
	for _, name := range []string{"sc", "tso"} {
		p := progs[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := p.Execute(int64(i), nil); res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		})
	}
}
