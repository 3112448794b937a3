package platform

import "bbwfsim/internal/units"

// The presets below encode Table I of the paper ("input parameters used in
// simulation for evaluating the accuracy of our proposed model") plus the
// few ancillary values Table I omits (node link bandwidth, per-node core
// counts, RAM), taken from the platform descriptions in Section III-A.
//
//	           Processor          Burst Buffer          PFS
//	           speed/core      network    disk      network    disk
//	 Cori      36.80 GF/s      800 MB/s   950 MB/s  1.0 GB/s   100 MB/s
//	 Summit    49.12 GF/s      6.5 GB/s   3.3 GB/s  2.1 GB/s   100 MB/s
//
// The StreamCap values are calibration parameters of our model (see
// DESIGN.md): they bound a single POSIX stream and are what makes per-
// pipeline contention appear long before the aggregate peak is reached.

// CoriStreamCap is the calibrated single-stream POSIX throughput on Cori's
// DataWarp burst buffer.
const CoriStreamCap = 160 * units.MBps

// SummitStreamCap is the calibrated single-stream POSIX throughput on
// Summit's node-local NVMe.
const SummitStreamCap = 1.2 * units.GBps

// Cori returns a Cori-like platform (Cray XC40 Haswell partition) with a
// remote shared burst buffer, in the given DataWarp mode, with the given
// number of compute nodes.
func Cori(nodes int, mode BBMode) Config {
	return Config{
		Name:         "cori",
		Nodes:        nodes,
		CoresPerNode: 32,
		CoreSpeed:    36.80 * units.GFlopPerSec,
		RAMPerNode:   128 * units.GiB,
		NodeLinkBW:   10 * units.GBps, // Aries injection bandwidth
		PFS: StorageConfig{
			NetworkBW: 1.0 * units.GBps,
			DiskBW:    100 * units.MBps,
			StreamCap: 100 * units.MBps,
		},
		BB: StorageConfig{
			NetworkBW: 800 * units.MBps,
			DiskBW:    950 * units.MBps,
			Capacity:  6.4 * units.TB, // one DataWarp node allocation
			StreamCap: CoriStreamCap,
		},
		BBKind: BBShared,
		BBMode: mode,
	}
}

// Summit returns a Summit-like platform (IBM AC922) with node-local NVMe
// burst buffers, with the given number of compute nodes.
func Summit(nodes int) Config {
	return Config{
		Name:         "summit",
		Nodes:        nodes,
		CoresPerNode: 42, // 2 × POWER9, SMT off
		CoreSpeed:    49.12 * units.GFlopPerSec,
		RAMPerNode:   512 * units.GiB,
		NodeLinkBW:   12.5 * units.GBps, // dual-rail EDR, half-duplex share
		PFS: StorageConfig{
			NetworkBW: 2.1 * units.GBps,
			DiskBW:    100 * units.MBps,
			StreamCap: 100 * units.MBps,
		},
		BB: StorageConfig{
			// Table I lists 6.5 GB/s network and 3.3 GB/s disk for the
			// Samsung PM1725a; the "network" bandwidth only applies when a
			// remote node reads another node's BB (not modeled by default).
			NetworkBW: 6.5 * units.GBps,
			DiskBW:    3.3 * units.GBps,
			Capacity:  1.6 * units.TB, // per node
			StreamCap: SummitStreamCap,
		},
		BBKind: BBOnNode,
		BBMode: BBModeNone,
	}
}

// presets are the named platform presets, by the names the command-line
// tools accept.
var presets = [...]struct {
	name  string
	build func(nodes int) Config
}{
	{"cori-private", func(nodes int) Config { return Cori(nodes, BBPrivate) }},
	{"cori-striped", func(nodes int) Config { return Cori(nodes, BBStriped) }},
	{"summit", Summit},
}

// Preset returns the named preset ("cori-private", "cori-striped",
// "summit") with the given node count, building only that one, and false
// for an unknown name.
func Preset(name string, nodes int) (Config, bool) {
	for _, p := range presets {
		if p.name == name {
			return p.build(nodes), true
		}
	}
	return Config{}, false
}

// Presets returns all named platform presets, keyed by the names Preset
// accepts.
func Presets(nodes int) map[string]Config {
	m := make(map[string]Config, len(presets))
	for _, p := range presets {
		m[p.name] = p.build(nodes)
	}
	return m
}
