// EDGI deployment example (§5, Fig 8, Table 5): the University Paris-XI
// slice of the European Desktop Grid Infrastructure — two XtremWeb-HEP
// desktop grids (XW@LAL on the lab's desktop machines, XW@LRI harvesting
// Grid'5000 best-effort nodes), EGI grid tasks arriving through the
// 3G-Bridge, and SpeQuloS providing QoS from two different clouds
// (StratusLab/OpenNebula for LAL, Amazon EC2 for LRI).
package main

import (
	"fmt"
	"os"

	"spequlos/internal/experiments"
)

func main() {
	fmt.Println("simulating the EDGI Paris-XI deployment: one campaign cell per DG, each with its cloud…")
	t5, err := experiments.BuildTable5(2012)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgi:", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Print(t5.Render())
	fmt.Println()
	fmt.Println("Columns mirror Table 5 of the paper: tasks executed on each")
	fmt.Println("Desktop Grid, tasks that arrived from EGI through the 3G-Bridge")
	fmt.Println("(every other XW@LAL BoT, forwarded unchanged), and tasks SpeQuloS")
	fmt.Println("executed on each supporting cloud.")
}
