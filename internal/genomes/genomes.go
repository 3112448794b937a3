// Package genomes generates instances of the 1000Genomes workflow used for
// the paper's large-scale case study (Section IV-C): a bioinformatics
// workflow that identifies mutational overlaps from 1000 Genomes Project
// data.
//
// Structure (per the paper and the WorkflowHub trace it references):
//
//   - individuals: parse a slice of one chromosome's data (many per
//     chromosome) — fan-out over 2504 individuals split into slices;
//   - individuals_merge: merge the slices of one chromosome;
//   - sifting: compute SIFT scores of the chromosome's SNP variants;
//   - populations: parse the super-population definitions (one task, its
//     seven outputs are shared by every downstream analysis task);
//   - mutation_overlap: per chromosome × population, overlap in mutations
//     among pairs of individuals;
//   - frequency: per chromosome × population, frequency of overlapping
//     mutations.
//
// The default 22-chromosome instance has exactly 903 tasks (22·(25+1+1+7+7)
// + 1 populations task) and a ~67 GB data footprint of which ~52 GB (77%)
// is workflow input, matching the instance the paper simulates. The
// 2-chromosome configuration reproduces the smaller setup of the paper's
// earlier real study ([10]) that Fig. 14 compares against.
//
// Work and λ_io values are synthetic calibration anchors (see DESIGN.md).
package genomes

import (
	"fmt"
	"strconv"

	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// Default instance shape.
const (
	DefaultChromosomes  = 22
	SlicesPerChromosome = 25 // individuals tasks per chromosome
	Populations         = 7  // super-population analyses per chromosome
	// Sizes are tuned so the 22-chromosome instance has a ~67 GB footprint
	// with ~52 GB (77%) of workflow input, the proportions the paper
	// reports for its simulated instance.
	SliceSize            = 90 * units.MiB
	SiftInputSize        = 40 * units.MiB
	PopulationFileSize   = 2 * units.MiB
	MergedSize           = 150 * units.MiB
	SiftedSize           = 20 * units.MiB
	OverlapResultSize    = 3 * units.MiB
	FrequencyResultSize  = 6 * units.MiB
	IndividualsSliceSize = 16 * units.MiB // per-slice parsed output
)

// Synthetic per-task sequential compute works, in flops at Cori core speed
// (36.8 GFlop/s): the seconds below are sequential compute times.
var (
	WorkIndividuals = flopsAtCori(60)
	WorkMerge       = flopsAtCori(120)
	WorkSifting     = flopsAtCori(90)
	WorkPopulations = flopsAtCori(30)
	WorkOverlap     = flopsAtCori(120)
	WorkFrequency   = flopsAtCori(150)
)

// Synthetic observed I/O fractions per task category.
const (
	LambdaIndividuals = 0.50
	LambdaMerge       = 0.40
	LambdaSifting     = 0.30
	LambdaPopulations = 0.60
	LambdaOverlap     = 0.20
	LambdaFrequency   = 0.20
)

func flopsAtCori(seconds float64) units.Flops {
	return units.Flops(seconds * 36.80e9)
}

// Params configures a generated instance.
type Params struct {
	// Chromosomes is the number of chromosomes processed (22 for the
	// paper's simulated instance, 2 for the prior-study reference).
	Chromosomes int
	// Slices overrides SlicesPerChromosome when positive.
	Slices int
	// CoresPerTask is the core request of every task (default 1, as the
	// workflow's tasks are single-core codes).
	CoresPerTask int
}

func (p *Params) withDefaults() Params {
	q := *p
	if q.Chromosomes == 0 {
		q.Chromosomes = DefaultChromosomes
	}
	if q.Slices == 0 {
		q.Slices = SlicesPerChromosome
	}
	if q.CoresPerTask == 0 {
		q.CoresPerTask = 1
	}
	return q
}

// New generates a 1000Genomes workflow instance.
func New(params Params) (*workflow.Workflow, error) {
	p := params.withDefaults()
	if p.Chromosomes <= 0 || p.Slices <= 0 || p.CoresPerTask < 0 {
		return nil, fmt.Errorf("genomes: invalid parameters %+v", p)
	}
	w := workflow.New("1000genomes-" + strconv.Itoa(p.Chromosomes) + "chr")

	// Shared populations task: seven super-population files from one small
	// input.
	w.MustAddFile("populations.in", PopulationFileSize)
	popFiles := make([]string, 0, Populations)
	for k := 0; k < Populations; k++ {
		id := "pop_" + strconv.Itoa(k) + ".txt"
		w.MustAddFile(id, PopulationFileSize)
		popFiles = append(popFiles, id)
	}
	w.MustAddTask(workflow.TaskSpec{
		ID: "populations", Name: "populations",
		Work: WorkPopulations, Cores: p.CoresPerTask, LambdaIO: LambdaPopulations,
		Inputs: []string{"populations.in"}, Outputs: popFiles,
	})

	for c := 1; c <= p.Chromosomes; c++ {
		// individuals fan-out.
		chr := "chr" + workflow.PadInt(c, 2)
		sliceOutputs := make([]string, 0, p.Slices)
		for s := 0; s < p.Slices; s++ {
			ss := workflow.PadInt(s, 2)
			in := chr + "_slice" + ss + ".vcf"
			out := chr + "_ind" + ss + ".out"
			w.MustAddFile(in, SliceSize)
			w.MustAddFile(out, IndividualsSliceSize)
			w.MustAddTask(workflow.TaskSpec{
				ID:   "individuals_" + chr + "_s" + ss,
				Name: "individuals", Work: WorkIndividuals, Cores: p.CoresPerTask,
				LambdaIO: LambdaIndividuals,
				Inputs:   []string{in}, Outputs: []string{out},
			})
			sliceOutputs = append(sliceOutputs, out)
		}
		// individuals_merge.
		merged := chr + "_merged.tar.gz"
		w.MustAddFile(merged, MergedSize)
		w.MustAddTask(workflow.TaskSpec{
			ID:   "merge_" + chr,
			Name: "individuals_merge", Work: WorkMerge, Cores: p.CoresPerTask,
			LambdaIO: LambdaMerge,
			Inputs:   sliceOutputs, Outputs: []string{merged},
		})
		// sifting.
		siftIn := chr + "_sift.vcf"
		sifted := chr + "_sifted.txt"
		w.MustAddFile(siftIn, SiftInputSize)
		w.MustAddFile(sifted, SiftedSize)
		w.MustAddTask(workflow.TaskSpec{
			ID:   "sifting_" + chr,
			Name: "sifting", Work: WorkSifting, Cores: p.CoresPerTask,
			LambdaIO: LambdaSifting,
			Inputs:   []string{siftIn}, Outputs: []string{sifted},
		})
		// Per-population analyses.
		for k := 0; k < Populations; k++ {
			pop := chr + "_pop" + strconv.Itoa(k)
			ovl := pop + "_overlap.tar.gz"
			frq := pop + "_frequency.tar.gz"
			w.MustAddFile(ovl, OverlapResultSize)
			w.MustAddFile(frq, FrequencyResultSize)
			w.MustAddTask(workflow.TaskSpec{
				ID:   "overlap_" + chr + "_p" + strconv.Itoa(k),
				Name: "mutation_overlap", Work: WorkOverlap, Cores: p.CoresPerTask,
				LambdaIO: LambdaOverlap,
				Inputs:   []string{merged, sifted, popFiles[k]},
				Outputs:  []string{ovl},
			})
			w.MustAddTask(workflow.TaskSpec{
				ID:   "frequency_" + chr + "_p" + strconv.Itoa(k),
				Name: "frequency", Work: WorkFrequency, Cores: p.CoresPerTask,
				LambdaIO: LambdaFrequency,
				Inputs:   []string{merged, sifted, popFiles[k]},
				Outputs:  []string{frq},
			})
		}
	}
	return w, nil
}

// MustNew is New for known-good parameters.
func MustNew(params Params) *workflow.Workflow {
	w, err := New(params)
	if err != nil {
		panic(err)
	}
	return w
}
