package platform

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"bbwfsim/internal/sim"
	"bbwfsim/internal/units"
)

func TestPresetsMatchTableI(t *testing.T) {
	cori := Cori(1, BBPrivate)
	if cori.CoreSpeed != 36.80*units.GFlopPerSec {
		t.Errorf("Cori core speed = %v, want 36.80 GFlop/s", cori.CoreSpeed)
	}
	if cori.BB.NetworkBW != 800*units.MBps {
		t.Errorf("Cori BB network = %v, want 800 MB/s", cori.BB.NetworkBW)
	}
	if cori.BB.DiskBW != 950*units.MBps {
		t.Errorf("Cori BB disk = %v, want 950 MB/s", cori.BB.DiskBW)
	}
	if cori.PFS.NetworkBW != 1.0*units.GBps {
		t.Errorf("Cori PFS network = %v, want 1.0 GB/s", cori.PFS.NetworkBW)
	}
	if cori.PFS.DiskBW != 100*units.MBps {
		t.Errorf("Cori PFS disk = %v, want 100 MB/s", cori.PFS.DiskBW)
	}
	if cori.BBKind != BBShared {
		t.Errorf("Cori BB kind = %v, want shared", cori.BBKind)
	}

	summit := Summit(1)
	if summit.CoreSpeed != 49.12*units.GFlopPerSec {
		t.Errorf("Summit core speed = %v, want 49.12 GFlop/s", summit.CoreSpeed)
	}
	if summit.BB.NetworkBW != 6.5*units.GBps {
		t.Errorf("Summit BB network = %v, want 6.5 GB/s", summit.BB.NetworkBW)
	}
	if summit.BB.DiskBW != 3.3*units.GBps {
		t.Errorf("Summit BB disk = %v, want 3.3 GB/s", summit.BB.DiskBW)
	}
	if summit.PFS.NetworkBW != 2.1*units.GBps {
		t.Errorf("Summit PFS network = %v, want 2.1 GB/s", summit.PFS.NetworkBW)
	}
	if summit.PFS.DiskBW != 100*units.MBps {
		t.Errorf("Summit PFS disk = %v, want 100 MB/s", summit.PFS.DiskBW)
	}
	if summit.BBKind != BBOnNode || summit.BBMode != BBModeNone {
		t.Errorf("Summit BB kind/mode = %v/%v, want on-node/none", summit.BBKind, summit.BBMode)
	}
}

func TestPresetsValidate(t *testing.T) {
	for name, cfg := range Presets(4) {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		if cfg.Nodes != 4 {
			t.Errorf("preset %s has %d nodes, want 4", name, cfg.Nodes)
		}
	}
}

// TestPresetMatchesPresets: Preset builds exactly the config Presets
// lists under each name, and knows no other name.
func TestPresetMatchesPresets(t *testing.T) {
	all := Presets(3)
	if len(all) != 3 {
		t.Fatalf("%d presets, want 3", len(all))
	}
	for name, want := range all {
		got, ok := Preset(name, 3)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("Preset(%q, 3) = %+v, %v; Presets lists %+v", name, got, ok, want)
		}
	}
	for _, name := range []string{"", "cori", "Summit", "summit "} {
		if _, ok := Preset(name, 3); ok {
			t.Errorf("Preset(%q) found a config", name)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := Cori(1, BBPrivate)
	mutations := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.CoresPerNode = -1 },
		func(c *Config) { c.CoreSpeed = 0 },
		func(c *Config) { c.NodeLinkBW = 0 },
		func(c *Config) { c.PFS.DiskBW = 0 },
		func(c *Config) { c.BB.DiskBW = -5 },
		func(c *Config) { c.BB.Capacity = -1 },
		func(c *Config) { c.BB.ReadLatency = -0.1 },
		func(c *Config) { c.BBKind = "weird" },
		func(c *Config) { c.BBMode = "weird" },
		func(c *Config) { c.BBKind = BBOnNode; c.BBMode = BBPrivate },
		func(c *Config) { c.BBMode = BBModeNone },
	}
	for i, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted invalid config", i)
		}
	}
}

func TestNewCreatesNodes(t *testing.T) {
	e := sim.NewEngine()
	p := MustNew(e, Cori(3, BBStriped))
	if len(p.Nodes()) != 3 {
		t.Fatalf("got %d nodes, want 3", len(p.Nodes()))
	}
	for i, n := range p.Nodes() {
		if n.Index() != i {
			t.Errorf("node %d has index %d", i, n.Index())
		}
		if n.Cores() != 32 {
			t.Errorf("node %d has %d cores, want 32", i, n.Cores())
		}
		if n.Link() == nil {
			t.Errorf("node %d has no link resource", i)
		}
		if n.FreeCores() != 32 {
			t.Errorf("node %d has %d free cores, want 32", i, n.FreeCores())
		}
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	e := sim.NewEngine()
	cfg := Cori(1, BBPrivate)
	cfg.Nodes = 0
	if _, err := New(e, cfg); err == nil {
		t.Error("New accepted invalid config")
	}
}

func TestCoreAllocation(t *testing.T) {
	e := sim.NewEngine()
	p := MustNew(e, Cori(1, BBPrivate))
	n := p.Node(0)
	if !n.AllocateResources(20, 0) {
		t.Fatal("AllocateResources(20, 0) failed on empty node")
	}
	if n.FreeCores() != 12 {
		t.Errorf("FreeCores = %d, want 12", n.FreeCores())
	}
	if n.AllocateResources(13, 0) {
		t.Error("AllocateResources(13, 0) succeeded with 12 free")
	}
	if !n.AllocateResources(12, 0) {
		t.Error("AllocateResources(12, 0) failed with 12 free")
	}
	n.Release(32)
	if n.FreeCores() != 32 {
		t.Errorf("FreeCores = %d after release, want 32", n.FreeCores())
	}
}

func TestAllocatePanicsOnNonPositive(t *testing.T) {
	e := sim.NewEngine()
	p := MustNew(e, Cori(1, BBPrivate))
	defer func() {
		if recover() == nil {
			t.Error("AllocateResources(0, 0) did not panic")
		}
	}()
	p.Node(0).AllocateResources(0, 0)
}

func TestReleaseMoreThanAllocatedPanics(t *testing.T) {
	e := sim.NewEngine()
	p := MustNew(e, Cori(1, BBPrivate))
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	p.Node(0).Release(1)
}

func TestComputeTimeAmdahl(t *testing.T) {
	e := sim.NewEngine()
	p := MustNew(e, Cori(1, BBPrivate))
	n := p.Node(0)
	work := units.Flops(36.80e9 * 100) // 100 s sequential on one Cori core

	if got := n.ComputeTime(work, 1, 0); math.Abs(got-100) > 1e-9 {
		t.Errorf("ComputeTime(1 core) = %v, want 100", got)
	}
	// Perfect speedup: alpha = 0.
	if got := n.ComputeTime(work, 10, 0); math.Abs(got-10) > 1e-9 {
		t.Errorf("ComputeTime(10 cores, alpha=0) = %v, want 10", got)
	}
	// Amdahl with alpha = 0.2: 0.2*100 + 0.8*100/10 = 28.
	if got := n.ComputeTime(work, 10, 0.2); math.Abs(got-28) > 1e-9 {
		t.Errorf("ComputeTime(10 cores, alpha=0.2) = %v, want 28", got)
	}
	// Fully sequential: alpha = 1.
	if got := n.ComputeTime(work, 32, 1); math.Abs(got-100) > 1e-9 {
		t.Errorf("ComputeTime(32 cores, alpha=1) = %v, want 100", got)
	}
}

func TestComputeTimePanics(t *testing.T) {
	e := sim.NewEngine()
	n := MustNew(e, Cori(1, BBPrivate)).Node(0)
	for _, fn := range []func(){
		func() { n.ComputeTime(1e9, 0, 0) },
		func() { n.ComputeTime(1e9, 1, -0.1) },
		func() { n.ComputeTime(1e9, 1, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid ComputeTime args did not panic")
				}
			}()
			fn()
		}()
	}
}

// Property: Amdahl compute time is non-increasing in p and bounded below by
// the sequential fraction.
func TestComputeTimeMonotoneQuick(t *testing.T) {
	e := sim.NewEngine()
	n := MustNew(e, Cori(1, BBPrivate)).Node(0)
	f := func(rawWork uint32, rawAlpha uint16, rawP uint8) bool {
		work := units.Flops(1e9 + float64(rawWork))
		alpha := float64(rawAlpha%1001) / 1000.0
		p := 1 + int(rawP%64)
		t1 := n.ComputeTime(work, p, alpha)
		t2 := n.ComputeTime(work, p+1, alpha)
		seq := work.Seconds(n.CoreSpeed())
		return t2 <= t1+1e-12 && t1 >= alpha*seq-1e-12 && t1 <= seq+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for name, cfg := range Presets(8) {
		data, err := MarshalConfig(cfg)
		if err != nil {
			t.Errorf("%s: marshal: %v", name, err)
			continue
		}
		back, err := ParseConfig(data)
		if err != nil {
			t.Errorf("%s: parse: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Errorf("%s: round trip changed config:\n%+v\n!=\n%+v", name, cfg, back)
		}
	}
}

// TestShippedPlatformFilesMatchPresets: platforms/ holds exactly one JSON
// file per preset, byte-identical to what bbplat -all writes for it.
func TestShippedPlatformFilesMatchPresets(t *testing.T) {
	const dir = "../../platforms"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	for name, cfg := range Presets(1) {
		want = append(want, name+".json")
		data, err := MarshalConfig(cfg)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		file, err := os.ReadFile(filepath.Join(dir, name+".json"))
		if err != nil {
			t.Error(err)
			continue
		}
		if !bytes.Equal(file, append(data, '\n')) {
			t.Errorf("%s.json differs from the preset; regenerate with bbplat -all -dir platforms", name)
		}
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("%s holds %v, want %v", dir, got, want)
	}
}

func TestSaveLoadConfig(t *testing.T) {
	path := t.TempDir() + "/platform.json"
	cfg := Summit(16)
	cfg.BB.ReadLatency = 0.0001
	cfg.BB.WriteLatency = 0.0002
	if err := SaveConfig(path, cfg); err != nil {
		t.Fatalf("SaveConfig: %v", err)
	}
	back, err := LoadConfig(path)
	if err != nil {
		t.Fatalf("LoadConfig: %v", err)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Errorf("save/load changed config:\n%+v\n!=\n%+v", cfg, back)
	}
}

func TestLoadConfigMissingFile(t *testing.T) {
	if _, err := LoadConfig(t.TempDir() + "/nope.json"); err == nil {
		t.Error("LoadConfig on missing file succeeded")
	}
}

func TestParseConfigErrors(t *testing.T) {
	cases := []string{
		`{`,
		`{"name":"x","nodes":1,"coresPerNode":1,"coreSpeed":"fast","nodeLinkBW":"1GB/s","pfs":{"diskBW":"1GB/s"},"bb":{"diskBW":"1GB/s"},"bbKind":"on-node"}`,
		`{"name":"x","nodes":1,"coresPerNode":1,"coreSpeed":"1GFlop/s","nodeLinkBW":"slow","pfs":{"diskBW":"1GB/s"},"bb":{"diskBW":"1GB/s"},"bbKind":"on-node"}`,
		`{"name":"x","nodes":1,"coresPerNode":1,"coreSpeed":"1GFlop/s","nodeLinkBW":"1GB/s","pfs":{"diskBW":"broken"},"bb":{"diskBW":"1GB/s"},"bbKind":"on-node"}`,
		`{"name":"x","nodes":1,"coresPerNode":1,"coreSpeed":"1GFlop/s","nodeLinkBW":"1GB/s","pfs":{"diskBW":"1GB/s"},"bb":{"diskBW":"1GB/s"},"bbKind":"mystery"}`,
	}
	for i, c := range cases {
		if _, err := ParseConfig([]byte(c)); err == nil {
			t.Errorf("case %d: ParseConfig accepted invalid input", i)
		}
	}
}

func TestMemoryAccounting(t *testing.T) {
	e := sim.NewEngine()
	cfg := Cori(1, BBPrivate) // 128 GiB RAM
	n := MustNew(e, cfg).Node(0)
	if n.FreeMemory() != 128*units.GiB {
		t.Fatalf("FreeMemory = %v, want 128 GiB", n.FreeMemory())
	}
	if !n.AllocateResources(4, 100*units.GiB) {
		t.Fatal("allocation within limits failed")
	}
	if n.AllocateResources(4, 100*units.GiB) {
		t.Fatal("over-allocation of memory succeeded")
	}
	if !n.HasResources(4, 28*units.GiB) {
		t.Error("remaining memory not reported")
	}
	n.ReleaseResources(4, 100*units.GiB)
	if n.FreeMemory() != 128*units.GiB || n.FreeCores() != 32 {
		t.Error("release did not restore resources")
	}
}

func TestMemoryUnconstrainedWithoutRAM(t *testing.T) {
	e := sim.NewEngine()
	cfg := Cori(1, BBPrivate)
	cfg.RAMPerNode = 0
	n := MustNew(e, cfg).Node(0)
	if !n.AllocateResources(1, 1e18) {
		t.Error("RAM-less node should be memory-unconstrained")
	}
	n.ReleaseResources(1, 1e18)
}

func TestAllocateResourcesPanics(t *testing.T) {
	e := sim.NewEngine()
	n := MustNew(e, Cori(1, BBPrivate)).Node(0)
	for _, fn := range []func(){
		func() { n.AllocateResources(0, 0) },
		func() { n.AllocateResources(1, -5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid AllocateResources did not panic")
				}
			}()
			fn()
		}()
	}
}
