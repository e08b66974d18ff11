// fused_comparison pits Shortcut Mining against a fused-layer pipeline
// accelerator (Alwani-style line buffering) across the zoo and across
// SRAM capacities — the related-work comparison behind experiment E17.
// It prints the regime map: fusion wins on shortcut-free chains and on
// feature maps that dwarf the pool; mining wins wherever retention
// fits, and the streaming-recycle extension (E18) pushes that boundary
// down.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"shortcutmining/internal/core"
	"shortcutmining/internal/fused"
	"shortcutmining/internal/nn"
)

func main() {
	cfg := core.Default()
	scmPlus := core.SCM.Features()
	scmPlus.StreamingRecycle = true

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "network\tbaseline MiB\tfused MiB\tscm MiB\tscm+SR MiB\twinner")
	for _, name := range []string{"vgg16", "squeezenet-bypass", "resnet34", "resnet50", "resnet152", "googlenet"} {
		net := nn.MustBuild(name)
		base, err := core.Simulate(net, cfg, core.Baseline, nil)
		if err != nil {
			log.Fatal(err)
		}
		scm, err := core.Simulate(net, cfg, core.SCM, nil)
		if err != nil {
			log.Fatal(err)
		}
		plus, err := core.SimulateFeatures(net, cfg, scmPlus, nil)
		if err != nil {
			log.Fatal(err)
		}
		fl, err := fused.Simulate(net, cfg)
		if err != nil {
			log.Fatal(err)
		}
		winner := "scm"
		if fl.Run.FmapTrafficBytes() < plus.FmapTrafficBytes() {
			winner = "fused"
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%s\n",
			name, mib(base.FmapTrafficBytes()), mib(fl.Run.FmapTrafficBytes()),
			mib(scm.FmapTrafficBytes()), mib(plus.FmapTrafficBytes()), winner)
	}
	w.Flush()

	fmt.Println("\nResNet-152 crossover (traffic in MiB as the pool grows):")
	net := nn.MustBuild("resnet152")
	for _, kb := range []int64{256, 544, 1024, 2048, 4096} {
		c := cfg.WithPoolBytes(kb << 10)
		scm, err := core.Simulate(net, c, core.SCM, nil)
		if err != nil {
			log.Fatal(err)
		}
		fl, err := fused.Simulate(net, c)
		if err != nil {
			log.Fatal(err)
		}
		marker := "scm"
		if fl.Run.FmapTrafficBytes() < scm.FmapTrafficBytes() {
			marker = "fused"
		}
		fmt.Printf("  %5d KiB: fused %6.1f | scm %6.1f  → %s\n",
			kb, mib(fl.Run.FmapTrafficBytes()), mib(scm.FmapTrafficBytes()), marker)
	}
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }
