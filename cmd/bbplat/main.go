// Command bbplat exports the built-in platform presets as editable JSON
// description files — the starting point for modeling a machine that is
// not Cori or Summit. bbsim loads them with -platform <file>.json.
//
// Usage:
//
//	bbplat -preset summit                       # one preset to stdout
//	bbplat -all -dir platforms                  # every preset
//	bbplat -preset cori-striped -nodes 16       # resized preset
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"bbwfsim/internal/platform"
)

func main() {
	var (
		preset = flag.String("preset", "", "preset name: cori-private, cori-striped, summit")
		nodes  = flag.Int("nodes", 1, "node count")
		all    = flag.Bool("all", false, "write every preset into -dir")
		dir    = flag.String("dir", "platforms", "output directory for -all")
	)
	flag.Parse()

	presets := platform.Presets(*nodes)
	if *all {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fatal(err)
		}
		for name, cfg := range presets {
			if err := platform.SaveConfig(filepath.Join(*dir, name+".json"), cfg); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("wrote %d presets to %s/\n", len(presets), *dir)
		return
	}

	cfg, ok := presets[*preset]
	if !ok {
		fmt.Fprintf(os.Stderr, "bbplat: unknown preset %q (want cori-private, cori-striped, summit)\n", *preset)
		os.Exit(2)
	}
	data, err := platform.MarshalConfig(cfg)
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(append(data, '\n'))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bbplat: %v\n", err)
	os.Exit(1)
}
