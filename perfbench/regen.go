package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"privmem/internal/experiments"
	"privmem/internal/fleet"
)

// regenDigests recomputes digests.json: every paper artifact's report at
// every pinned seed, and the fleet summary of the fleet spec the traced
// run measures (full and tiny).
func regenDigests(w io.Writer) error {
	t := digestTable{Reports: map[string]map[string]string{}, Fleet: map[string]string{}}
	for i, seed := range pinnedSeeds {
		opts := experiments.Options{Seed: seed, SeedSet: true, Quick: true}
		reps, err := experiments.RunAll(context.Background(), experiments.IDs(), opts, experiments.RunAllOptions{Workers: runtime.NumCPU()})
		if err != nil {
			return err
		}
		t.Reports[fmt.Sprint(seed)] = map[string]string{}
		for _, rep := range reps {
			t.Reports[fmt.Sprint(seed)][rep.ID] = digest([]byte(rep.Render()))
		}
		for _, tiny := range []bool{false, true} {
			p, err := makePlan(workloads[0], int64(i), tiny)
			if err != nil {
				return err
			}
			res, err := fleet.Run(p.fleet.spec(p.fleet.Homes))
			if err != nil {
				return err
			}
			res.Workers = 0
			var buf bytes.Buffer
			if err := res.Render(&buf); err != nil {
				return err
			}
			t.Fleet[p.fleet.key()] = digest(buf.Bytes())
		}
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
