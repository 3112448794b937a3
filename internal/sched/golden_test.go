package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bbwfsim/internal/faults"
	"bbwfsim/internal/units"
	"bbwfsim/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json")

const goldenPath = "testdata/golden.json"

// scarceCell is the sched experiment's scarce cell: 32 nodes sharing
// 128 GiB of burst buffer.
var scarceCell = Cluster{
	Nodes:        32,
	BBCapacity:   128 * units.GiB,
	BBBandwidth:  units.Bandwidth(4 * units.GiB),
	PFSBandwidth: units.Bandwidth(units.GiB),
}

// goldenCampaign is one seeded campaign pinned by TestSchedGolden.
type goldenCampaign struct {
	name    string
	cluster Cluster
	spec    workloads.CampaignSpec
	faults  *FaultPlan
}

func goldenCampaigns() []goldenCampaign {
	unbounded := scarceCell
	unbounded.BBCapacity = 0
	return []goldenCampaign{
		{
			name:    "bounded",
			cluster: scarceCell,
			spec: workloads.CampaignSpec{Jobs: 2000, Seed: 21, ArrivalMean: 110, RuntimeMean: 600,
				MaxNodes: 16, BBMean: 4 * units.GiB},
		},
		{
			name:    "unbounded",
			cluster: unbounded,
			spec: workloads.CampaignSpec{Jobs: 600, Seed: 22, ArrivalMean: 110, RuntimeMean: 600,
				MaxNodes: 16, BBMean: 8 * units.GiB},
		},
		{
			name:    "faults",
			cluster: scarceCell,
			spec: workloads.CampaignSpec{Jobs: 600, Seed: 23, ArrivalMean: 110, RuntimeMean: 600,
				MaxNodes: 16, BBMean: 4 * units.GiB},
			faults: &FaultPlan{Seed: 24, Node: &faults.NodeProcess{Arrival: faults.Exp(3000), MTTR: 900}},
		},
	}
}

// goldenDigest is the SHA-256 of one campaign's per-job statistics, trace
// events and metrics snapshot under one policy.
type goldenDigest struct {
	Jobs    string `json:"jobs"`
	Trace   string `json:"trace"`
	Metrics string `json:"metrics"`
}

func sha(t *testing.T, v any) string {
	t.Helper()
	b, ok := v.([]byte)
	if !ok {
		var err error
		if b, err = json.Marshal(v); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSchedGolden pins every policy's results bit for bit on three seeded
// campaigns (bounded BB, unbounded BB, node faults). A scheduler change
// that alters any start time, trace event or metric fails here. Rewrite
// the digests only for an intended behaviour change:
//
//	go test ./internal/sched -run TestSchedGolden -update
func TestSchedGolden(t *testing.T) {
	got := map[string]map[string]goldenDigest{}
	for _, c := range goldenCampaigns() {
		jobs, err := workloads.Campaign(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		got[c.name] = map[string]goldenDigest{}
		for _, pol := range Policies() {
			res := mustRun(t, Config{Cluster: c.cluster, Policy: pol, Jobs: jobs, Faults: c.faults})
			if c.faults != nil && pol == PolicyEASY && res.NodeFailures == 0 {
				t.Fatalf("%s: fault campaign injected no node failures", c.name)
			}
			met, err := res.Metrics.JSON()
			if err != nil {
				t.Fatal(err)
			}
			got[c.name][pol] = goldenDigest{
				Jobs: sha(t, res.Jobs), Trace: sha(t, res.Trace.Events()), Metrics: sha(t, met),
			}
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	var want map[string]map[string]goldenDigest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for campaign, pols := range got {
		for pol, d := range pols {
			if w := want[campaign][pol]; w != d {
				t.Errorf("%s/%s: digests %+v, golden %+v", campaign, pol, d, w)
			}
		}
	}
	if !t.Failed() && !reflect.DeepEqual(want, got) {
		t.Errorf("%s pins other campaigns or policies than the test runs", goldenPath)
	}
}
