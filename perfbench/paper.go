package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"

	"bbwfsim/internal/experiments"
)

// paperSeed pins paper-full to the seed results/full_results.csv was made
// with, so that file's SHA-256 is the round's golden.
const paperSeed = 1

type paperFull struct {
	exps []experiments.Experiment
	opts experiments.Options
}

// setupPaperFull selects the experiments and warms the process with one
// pass over them at their Quick size, so the first timed round does not
// pay for heap growth.
func setupPaperFull(e *env) (instance, error) {
	p := &paperFull{opts: experiments.Options{Seed: paperSeed, Jobs: e.jobs, Quick: e.size.quick}}
	for _, x := range experiments.All() {
		if e.size.expIDs == nil || slices.Contains(e.size.expIDs, x.ID) {
			p.exps = append(p.exps, x)
		}
	}
	warm := p.opts
	warm.Quick = true
	for _, x := range p.exps {
		if _, err := x.Run(warm); err != nil {
			return nil, fmt.Errorf("%s: %w", x.ID, err)
		}
	}
	return p, nil
}

// round runs every experiment and renders its tables exactly as
// `bbexp -exp all -format csv` does.
func (p *paperFull) round(e *env, parent int) (roundResult, error) {
	var res roundResult
	var csv bytes.Buffer
	for _, x := range p.exps {
		id := e.tr.begin("experiments."+x.ID, parent, -1)
		tables, err := x.Run(p.opts)
		e.tr.end(id)
		e.ck.expect(err == nil, "experiment %s: %v", x.ID, err)
		for _, t := range tables {
			fmt.Fprintf(&csv, "# %s\n", t.ID)
			if err := t.CSV(&csv); err != nil {
				return res, err
			}
			csv.WriteByte('\n')
		}
		res.ops++
		if err := e.pause(); err != nil {
			return res, err
		}
	}
	res.rec = &goldenRecord{SHA256: fmt.Sprintf("%x", sha256.Sum256(csv.Bytes()))}
	return res, nil
}

func (p *paperFull) verify(*env) error { return nil }

func (p *paperFull) layers(e *env, _ []round, m map[string]float64) error {
	for _, x := range p.exps {
		m["experiments."+x.ID+"_s"] = e.tr.median("experiments." + x.ID)
	}
	return nil
}

func (p *paperFull) close() error { return nil }
