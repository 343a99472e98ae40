package core

import (
	"reflect"
	"testing"

	"waffle/internal/memmodel"
	"waffle/internal/sim"
)

// TestWithDefaultsIdempotent applies WithDefaults once and twice to every
// combination of −1, 0 and a positive value in every numeric field of
// Options, and requires the two results to agree field by field.
func TestWithDefaultsIdempotent(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	var fields []int
	for i := 0; i < typ.NumField(); i++ {
		switch typ.Field(i).Type.Kind() {
		case reflect.Int, reflect.Int64, reflect.Float64:
			fields = append(fields, i)
		}
	}
	vals := []float64{-1, 0, 3}
	combos := 1
	for range fields {
		combos *= len(vals)
	}
	for c := 0; c < combos; c++ {
		var o Options
		v := reflect.ValueOf(&o).Elem()
		for n, i := c, 0; i < len(fields); n, i = n/len(vals), i+1 {
			f := v.Field(fields[i])
			if f.Kind() == reflect.Float64 {
				f.SetFloat(vals[n%len(vals)])
			} else {
				f.SetInt(int64(vals[n%len(vals)]))
			}
		}
		once := o.WithDefaults()
		twice := once.WithDefaults()
		a, b := reflect.ValueOf(once), reflect.ValueOf(twice)
		for _, i := range fields {
			if !a.Field(i).Equal(b.Field(i)) {
				t.Fatalf("%+v: %s is %v after one WithDefaults and %v after two", o, typ.Field(i).Name, a.Field(i), b.Field(i))
			}
		}
	}
}

// TestNoCostWaffleChargesNothing runs a preparation and a detection run of
// a Waffle built with both costs set to "none": NewWaffle defaults its
// options, and the hooks it builds default them again, which must not turn
// "none" into the default cost. Both runs must end when the uninstrumented
// run does.
func TestNoCostWaffleChargesNothing(t *testing.T) {
	prog := &SimProgram{Label: "no-cost", Body: func(root *sim.Thread, h *memmodel.Heap) {
		r := h.NewRef("r")
		root.Sleep(sim.Millisecond)
		r.Init(root, "init")
		r.Use(root, "use")
	}}
	base := prog.Execute(1, nil).End
	w := NewWaffle(Options{InstrCost: -1, TraceCost: -1})
	prep := prog.Execute(1, w.HookForRun(1, nil))
	detect := prog.Execute(1, w.HookForRun(2, &RunReport{Run: 1, End: prep.End}))
	if prep.End != base || detect.End != base {
		t.Fatalf("preparation run ended at %v and detection run at %v, uninstrumented at %v: a cost was charged", prep.End, detect.End, base)
	}
}
