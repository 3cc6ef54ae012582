// Command bimgen generates, prints and verifies the Binary Invertible
// Matrices behind each mapping scheme.
//
// Usage:
//
//	bimgen -scheme PAE [-seed 1] [-layout hynix|3d] [-verify 100000]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"valleymap"
)

func main() {
	scheme := flag.String("scheme", "PAE", "mapping scheme: BASE, PM, RMP, PAE, FAE, ALL")
	seed := flag.Int64("seed", 1, "BIM seed for PAE/FAE/ALL")
	layoutName := flag.String("layout", "hynix", "address layout: hynix or 3d")
	verify := flag.Int("verify", 100000, "random addresses to round-trip through the inverse")
	flag.Parse()

	s, err := valleymap.ParseScheme(*scheme)
	if err != nil {
		badFlag(err)
	}
	var l valleymap.Layout
	switch strings.ToLower(*layoutName) {
	case "hynix":
		l = valleymap.HynixGDDR5()
	case "3d":
		l = valleymap.Stacked3D()
	default:
		badFlag(fmt.Errorf("unknown layout %q (want hynix or 3d)", *layoutName))
	}
	m := valleymap.NewMapper(s, l, *seed)
	mat := m.Matrix()

	fmt.Printf("%v\n", m)
	fmt.Printf("layout: %s\n\n", l)
	fmt.Println(mat)

	gates, depth := mat.GateCost()
	fmt.Printf("\nhardware: %d two-input XOR gates, critical path %d levels\n", gates, depth)
	fmt.Printf("invertible: %v (rank %d/%d)\n", mat.Invertible(), mat.Rank(), mat.N())

	if *verify > 0 {
		inv, err := mat.Inverse()
		if err != nil {
			fmt.Fprintf(os.Stderr, "inverse: %v\n", err)
			os.Exit(1)
		}
		rng := rand.New(rand.NewSource(99))
		mask := l.Capacity() - 1
		for i := 0; i < *verify; i++ {
			a := rng.Uint64() & mask
			if inv.Apply(mat.Apply(a)) != a {
				fmt.Fprintf(os.Stderr, "round-trip FAILED at %#x\n", a)
				os.Exit(1)
			}
		}
		fmt.Printf("round-trip verified on %d random addresses\n", *verify)
	}
}

// badFlag reports an invalid flag value on one line and exits 2, the
// flag package's own code for bad usage.
func badFlag(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
