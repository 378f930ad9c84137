package main

import (
	"context"
	"strings"
	"time"

	"privmem/internal/experiments"
)

// childSuite runs one cold quick-scale suite pass over p.IDs, serially and
// with the world memo on, as `figures -quick -workers 1` does. Untraced,
// it calls experiments.RunAll. Traced, it calls experiments.Run per id
// (the same calls RunAll makes with one worker) inside a span each, then
// repeats the pass in the same process to time the warm (memo-hit) pass.
func childSuite(p suitePlan, tr *tracer, ready func()) childResult {
	opts := experiments.Options{Seed: p.Seed, SeedSet: true, Quick: true}
	res := childResult{Layers: map[string]float64{}}
	ready()

	cpu0, ms0 := cpuNow(), memNow()
	root, t0 := tr.begin("suite.pass", -1)
	var reports []*experiments.Report
	var out strings.Builder
	if tr.on {
		reports = tracedPass(p.IDs, opts, tr, root, res.Layers, "")
	} else {
		var err error
		reports, err = experiments.RunAll(context.Background(), p.IDs, opts, experiments.RunAllOptions{Workers: 1})
		if err != nil {
			res.fail("suite: %v", err)
		}
	}
	rs, rt := tr.begin("experiments.render", root)
	for _, rep := range reports {
		if rep != nil {
			out.WriteString(rep.Render())
			out.WriteString("\n")
		}
	}
	render := tr.end(rs, rt)
	wall := tr.end(root, t0)
	res.Wall, res.CPU = wall.Seconds(), (cpuNow() - cpu0).Seconds()
	runtimeLayers(res.Layers, ms0, memNow())

	for i, id := range p.IDs {
		res.Attempted++
		if reports[i] == nil {
			res.fail("suite: %s: no report", id)
			continue
		}
		res.Reports = append(res.Reports, reportDigest{id, p.Seed, digest([]byte(reports[i].Render()))})
	}
	if tr.on {
		var sum float64
		for _, id := range p.IDs {
			sum += res.Layers["experiments."+id+".ms"]
		}
		res.Layers["experiments.render_ms"] = ms(render)
		res.Layers["experiments.unattributed_ms"] = ms(wall) - sum - ms(render)
		ws, wt := tr.begin("experiments.warm_pass", -1)
		tracedPass(p.IDs, opts, tr, ws, nil, "warm.")
		res.Layers["experiments.warm_pass_ms"] = ms(tr.end(ws, wt))
	}
	return res
}

// tracedPass runs ids one at a time, each in a span, recording each id's
// wall time and allocation into layers when layers is non-nil.
func tracedPass(ids []string, opts experiments.Options, tr *tracer, parent int, layers map[string]float64, prefix string) []*experiments.Report {
	reports := make([]*experiments.Report, len(ids))
	for i, id := range ids {
		before := memNow()
		s, t := tr.begin(prefix+"experiments."+id, parent)
		rep, err := experiments.Run(id, opts.ForExperiment(id))
		d := tr.end(s, t)
		if err == nil {
			reports[i] = rep
		}
		if layers != nil {
			layers["experiments."+id+".ms"] = ms(d)
			layers["experiments."+id+".alloc_mb"] = float64(memNow().TotalAlloc-before.TotalAlloc) / 1e6
		}
	}
	return reports
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
