// Chip: the provider's view of the CASH fabric (§III-A, Fig 3) — many
// tenants' virtual cores coming and going on one chip of Slice and
// cache-bank tiles, with placement, resizing, fragmentation, and the
// compaction that interchangeable Slices make trivial.
package main

import (
	"fmt"
	"log"

	"cash"
	"cash/internal/fabric"
)

func main() {
	chip := fabric.MustChip(16, 8) // 64 Slices + 64 banks
	fmt.Println("fresh chip (. free Slice, , free bank):")
	fmt.Println(chip)

	// A wave of tenants arrives with different appetites.
	shapes := []cash.Config{
		{Slices: 4, L2KB: 512},
		{Slices: 2, L2KB: 128},
		{Slices: 8, L2KB: 1024},
		{Slices: 1, L2KB: 64},
		{Slices: 6, L2KB: 2048},
		{Slices: 2, L2KB: 256},
	}
	var ids []fabric.TenantID
	for _, s := range shapes {
		id, err := chip.Allocate(s)
		if err != nil {
			log.Fatalf("allocate %s: %v", s, err)
		}
		ids = append(ids, id)
	}
	fmt.Println("six tenants placed (digits = tenant id):")
	fmt.Println(chip)
	for _, id := range ids {
		spread, _ := chip.Spread(id)
		d, _ := chip.Distances(id)
		fmt.Printf("  tenant %d: slice spread %.1f hops, %d banks (nearest at %d hops)\n",
			id, spread, len(d), minInt(d))
	}

	// Tenants 1, 3 and 5 leave; tenant 2's runtime grows it (an EXPAND:
	// the chip adds tiles to those the tenant already holds).
	chip.Release(ids[0])
	chip.Release(ids[2])
	chip.Release(ids[4])
	if err := chip.Resize(ids[1], cash.Config{Slices: 6, L2KB: 512}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nafter churn (three departures, one EXPAND):")
	fmt.Println(chip)
	fmt.Printf("free-space fragmentation: %.2f\n", chip.Fragmentation())

	// Fragmentation is repaired by rescheduling Slices — the paper's
	// §III-A: "fixing fragmentation problems is as simple as
	// rescheduling Slices to virtual cores".
	moved := chip.Compact()
	fmt.Printf("\ncompacted (%d tiles rescheduled):\n", moved)
	fmt.Println(chip)
	fmt.Printf("free-space fragmentation: %.2f\n", chip.Fragmentation())
}

func minInt(v []int) int {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
