// Package swarp generates instances of the SWarp cosmology workflow used
// throughout the paper's characterization (Section III-B): one sequential
// stage-in task followed by N independent pipelines, each a Resample task
// feeding a Combine task.
//
// Per pipeline, the inputs are 16 images of 32 MiB and 16 weight maps of
// 16 MiB (the paper's instance). Resample produces one resampled image and
// weight per input pair; Combine reads all intermediates and produces a
// single co-added image and its weight map — the 1:N access pattern the
// paper identifies as pathological for the striped BB mode.
//
// The compute-work constants are synthetic calibration anchors (we have no
// Cori to measure): they are chosen so a 32-core Resample/Combine lands in
// the tens of seconds with the paper's λ_io values (0.203 / 0.260), and are
// derived through the same Eq. 4 pipeline the paper uses (see DESIGN.md).
package swarp

import (
	"fmt"
	"strconv"

	"bbwfsim/internal/calib"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workflow"
)

// The paper's SWarp instance parameters.
const (
	// ImagesPerPipeline is the number of input images (and weight maps).
	ImagesPerPipeline = 16
	// ImageSize and WeightSize are the input file sizes.
	ImageSize  = 32 * units.MiB
	WeightSize = 16 * units.MiB
	// CombinedImageSize and CombinedWeightSize are the synthetic sizes of
	// Combine's two outputs (the co-added image and its weight map).
	CombinedImageSize  = 64 * units.MiB
	CombinedWeightSize = 32 * units.MiB
)

// Synthetic observed anchor times: wall time of each task on 32 Cori cores
// with all data on the burst buffer, standing in for the paper's real
// measurements. Work values derive from them via Eq. 4.
const (
	anchorCores        = 32
	anchorResampleTime = 12.0 // seconds, λ_io = 0.203
	anchorCombineTime  = 8.0  // seconds, λ_io = 0.260
	coriCoreSpeed      = 36.80e9
)

// ResampleWork and CombineWork are the calibrated sequential compute works:
// W = p · (1 − λ) · T(p) · speed (Eq. 4 times core speed).
var (
	ResampleWork = units.Flops(anchorCores * (1 - calib.LambdaIOResample) * anchorResampleTime * coriCoreSpeed)
	CombineWork  = units.Flops(anchorCores * (1 - calib.LambdaIOCombine) * anchorCombineTime * coriCoreSpeed)
)

// Params configures a generated SWarp instance.
type Params struct {
	// Pipelines is the number of independent Resample→Combine pipelines.
	Pipelines int
	// CoresPerTask is the requested core count of Resample and Combine
	// tasks (the stage-in task is always sequential). Defaults to 32.
	CoresPerTask int
	// Images overrides ImagesPerPipeline when positive.
	Images int
	// ResampleWork and CombineWork override the calibrated works when
	// positive (used when re-calibrating against testbed observations).
	ResampleWork units.Flops
	CombineWork  units.Flops
	// Alpha is the Amdahl fraction of both compute tasks (0 = the paper's
	// perfect-speedup assumption). ResampleAlpha and CombineAlpha override
	// it per category when positive (used by the Eq. 3 calibration
	// ablation).
	Alpha         float64
	ResampleAlpha float64
	CombineAlpha  float64
}

func (p *Params) withDefaults() Params {
	q := *p
	if q.CoresPerTask == 0 {
		q.CoresPerTask = 32
	}
	if q.Images == 0 {
		q.Images = ImagesPerPipeline
	}
	if q.ResampleWork == 0 { //bbvet:allow float-compare -- zero is the "use default" sentinel for an unset parameter
		q.ResampleWork = ResampleWork
	}
	if q.CombineWork == 0 { //bbvet:allow float-compare -- zero is the "use default" sentinel for an unset parameter
		q.CombineWork = CombineWork
	}
	if q.ResampleAlpha == 0 { //bbvet:allow float-compare -- zero is the "use default" sentinel for an unset parameter
		q.ResampleAlpha = q.Alpha
	}
	if q.CombineAlpha == 0 { //bbvet:allow float-compare -- zero is the "use default" sentinel for an unset parameter
		q.CombineAlpha = q.Alpha
	}
	return q
}

// New generates a SWarp workflow instance.
func New(params Params) (*workflow.Workflow, error) {
	p := params.withDefaults()
	if p.Pipelines <= 0 {
		return nil, fmt.Errorf("swarp: pipelines must be positive, got %d", p.Pipelines)
	}
	if p.CoresPerTask < 0 || p.Images <= 0 {
		return nil, fmt.Errorf("swarp: invalid parameters %+v", p)
	}
	w := workflow.New("swarp-" + strconv.Itoa(p.Pipelines) + "p")

	// All pipeline inputs are produced by the single stage-in task;
	// pipeline i's are stageOutputs[i*perPipeline:(i+1)*perPipeline].
	perPipeline := 2 * p.Images
	stageOutputs := make([]string, 0, p.Pipelines*perPipeline)
	for i := 0; i < p.Pipelines; i++ {
		pi := "p" + workflow.PadInt(i, 3)
		for j := 0; j < p.Images; j++ {
			jj := workflow.PadInt(j, 2)
			img := pi + "_img" + jj + ".fits"
			wht := pi + "_wht" + jj + ".fits"
			w.MustAddFile(img, ImageSize)
			w.MustAddFile(wht, WeightSize)
			stageOutputs = append(stageOutputs, img, wht)
		}
	}
	w.MustAddTask(workflow.TaskSpec{
		ID:      "stage_in",
		Name:    "stage_in",
		Kind:    workflow.KindStageIn,
		Cores:   1,
		Outputs: stageOutputs,
	})

	for i := 0; i < p.Pipelines; i++ {
		pi := "p" + workflow.PadInt(i, 3)
		resampleOut := make([]string, 0, perPipeline)
		for j := 0; j < p.Images; j++ {
			jj := workflow.PadInt(j, 2)
			rimg := pi + "_rimg" + jj + ".fits"
			rwht := pi + "_rwht" + jj + ".fits"
			w.MustAddFile(rimg, ImageSize)
			w.MustAddFile(rwht, WeightSize)
			resampleOut = append(resampleOut, rimg, rwht)
		}
		w.MustAddTask(workflow.TaskSpec{
			ID:       "resample_" + workflow.PadInt(i, 3),
			Name:     "resample",
			Work:     p.ResampleWork,
			Cores:    p.CoresPerTask,
			Alpha:    p.ResampleAlpha,
			LambdaIO: calib.LambdaIOResample,
			Inputs:   stageOutputs[i*perPipeline : (i+1)*perPipeline],
			Outputs:  resampleOut,
		})
		coadd := pi + "_coadd.fits"
		coaddW := pi + "_coadd_weight.fits"
		w.MustAddFile(coadd, CombinedImageSize)
		w.MustAddFile(coaddW, CombinedWeightSize)
		w.MustAddTask(workflow.TaskSpec{
			ID:       "combine_" + workflow.PadInt(i, 3),
			Name:     "combine",
			Work:     p.CombineWork,
			Cores:    p.CoresPerTask,
			Alpha:    p.CombineAlpha,
			LambdaIO: calib.LambdaIOCombine,
			Inputs:   resampleOut,
			Outputs:  []string{coadd, coaddW},
		})
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
