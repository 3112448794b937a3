package experiments

import (
	"fmt"
	"sort"

	"bbwfsim/internal/core"
	"bbwfsim/internal/testbed"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
	"bbwfsim/internal/workloads"
)

// RunAblationStructures answers the question the paper's introduction
// poses — which workflow structures and file regimes actually benefit
// from burst buffers? — by sweeping DAG patterns (chain, fork-join,
// reduce-tree, broadcast, random layered) crossed with file regimes (many
// small files vs. few large files, equal bytes) over the three machine
// configurations, reporting the all-BB speedup over all-PFS on each.
func RunAblationStructures(opts Options) ([]*Table, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	reps := o.Reps
	if reps > 5 {
		reps = 5 // 2 regimes × 5 patterns × 3 machines × 2 placements
	}
	t := &Table{
		ID:    "ablation-structures",
		Title: "All-BB speedup over all-PFS by workflow structure and file regime",
		Header: []string{"pattern", "regime",
			"cori-private", "cori-striped", "summit"},
	}
	regimes := []struct {
		name string
		r    workloads.FileRegime
	}{
		{"many-small (64×4MiB)", workloads.ManySmall},
		{"few-large (1×256MiB)", workloads.FewLarge},
	}
	profiles := orderedProfiles(1)
	type structPoint struct {
		regime  string
		pattern string
		wf      *workflow.Workflow
		prof    testbed.Profile
	}
	var pts []structPoint
	for _, reg := range regimes {
		pats, err := workloads.Patterns(workloads.Params{
			Regime: reg.r,
			Work:   units.Flops(20 * 36.80e9), // 20 s sequential per task
			Cores:  4,
		})
		if err != nil {
			return nil, err
		}
		names := make([]string, 0, len(pats))
		for name := range pats {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, prof := range profiles {
				pts = append(pts, structPoint{reg.name, name, pats[name], prof})
			}
		}
	}
	cells, err := runPoints(o, pts, func(p structPoint) (string, error) {
		tb := testbed.NewRunner(p.prof, o.Seed)
		pfs, err := tb.Run(p.wf, core.RunOptions{IntermediatesToBB: false}, reps)
		if err != nil {
			return "", fmt.Errorf("structures %s/%s pfs: %w", p.pattern, p.prof.Name, err)
		}
		bb, err := tb.Run(p.wf, core.RunOptions{IntermediatesToBB: true}, reps)
		if err != nil {
			return "", fmt.Errorf("structures %s/%s bb: %w", p.pattern, p.prof.Name, err)
		}
		return fmt.Sprintf("%.2f", pfs.MeanMakespan()/bb.MeanMakespan()), nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(pts); i += len(profiles) {
		row := []string{pts[i].pattern, pts[i].regime}
		row = append(row, cells[i:i+len(profiles)]...)
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"speedup > 1: the BB helps; < 1: it hurts. Expected: the striped mode *hurts* on",
		"many-small regimes (its metadata-bound collapse) but tolerates few-large ones;",
		"the broadcast pattern with one large shared file is the N:1 case striping is",
		"optimized for. Answers the workflow-structure question the paper's intro poses.")
	return []*Table{t}, nil
}
