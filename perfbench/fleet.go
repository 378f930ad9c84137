package main

import (
	"bytes"
	"runtime"

	"privmem/internal/fleet"
)

// spec renders a fleet plan as the program's input, with one ingest
// worker per CPU.
func (p fleetPlan) spec(homes int) fleet.Spec {
	return fleet.Spec{Homes: homes, Workers: runtime.NumCPU(), Days: p.Days, Variants: p.Variants, Seed: p.Seed}
}

// childFleet runs one fleet.Run. Traced, it first runs the generator
// alone (one home per archetype or worker, so every chunk is still
// simulated but per-home work is negligible) and reports the full run's
// remainder as the worker stage.
func childFleet(p fleetPlan, tr *tracer, ready func()) childResult {
	res := childResult{Fleet: map[string]string{}, Layers: map[string]float64{}}
	ready()

	var gen float64
	if tr.on {
		homes := max(runtime.NumCPU(), len(fleet.ArchetypeNames()))
		s, t := tr.begin("fleet.gen", -1)
		if _, err := fleet.Run(p.spec(homes)); err != nil {
			res.fail("fleet gen: %v", err)
		}
		gen = ms(tr.end(s, t))
	}

	cpu0, ms0 := cpuNow(), memNow()
	s, t := tr.begin("fleet.run", -1)
	out, err := fleet.Run(p.spec(p.Homes))
	wall := tr.end(s, t)
	res.Wall, res.CPU = wall.Seconds(), (cpuNow() - cpu0).Seconds()
	runtimeLayers(res.Layers, ms0, memNow())

	res.Attempted = 1
	if err != nil {
		res.fail("fleet: %v", err)
		return res
	}
	// Render prints the worker count, which is nproc; the digest must not
	// depend on the machine.
	out.Workers = 0
	var buf bytes.Buffer
	if err := out.Render(&buf); err != nil {
		res.fail("fleet render: %v", err)
		return res
	}
	res.Fleet[p.key()] = digest(buf.Bytes())
	if tr.on {
		res.Layers["fleet.gen_ms"] = gen
		res.Layers["fleet.worker_ms"] = ms(wall) - gen
	}
	return res
}
