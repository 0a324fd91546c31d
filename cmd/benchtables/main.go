// Command benchtables regenerates the paper's experiment tables of
// EXPERIMENTS.md (the CLAIM-*, FIG-* and ABLATION-engines ids) from
// live measurements:
//
//	benchtables           # full sizes
//	benchtables -quick    # smaller sizes for a fast smoke run
//	benchtables -id CLAIM-T42-data
//	benchtables -list     # print the available experiment ids
package main

import (
	"flag"
	"fmt"

	"mdlog/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "use smaller experiment sizes")
	id := flag.String("id", "", "run only the experiment with this id")
	list := flag.Bool("list", false, "list experiment ids and titles without running them")
	flag.Parse()
	if *list {
		for _, e := range experiments.Index() {
			fmt.Printf("%-18s %s\n", e[0], e[1])
		}
		return
	}
	for _, t := range experiments.All(experiments.Config{Quick: *quick}, *id) {
		fmt.Println(t.Markdown())
	}
}
