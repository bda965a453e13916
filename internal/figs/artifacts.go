package figs

import (
	"cmp"
	"fmt"
	"io"

	"cash/internal/isim"
)

// An Artifact is one named report of the evaluation.
type Artifact struct {
	// Names are the artifact's names; Table III renders with Fig 7, so
	// "table3" names the same entry as "fig7".
	Names []string
	Run   func(*Harness) error
	// Spaced artifacts are followed by a blank line in "all"; the two
	// static tables run flush.
	Spaced bool
}

// Artifacts lists every artifact in the order "all" renders them.
var Artifacts = []Artifact{
	{Names: []string{"table1"}, Run: func(h *Harness) error { h.Table1(); return nil }},
	{Names: []string{"table2"}, Run: func(h *Harness) error { h.Table2(); return nil }},
	{Names: []string{"fig1"}, Run: (*Harness).Fig1, Spaced: true},
	{Names: []string{"fig2"}, Run: (*Harness).Fig2, Spaced: true},
	{Names: []string{"overhead"}, Run: (*Harness).Overhead, Spaced: true},
	{Names: []string{"fig7", "table3"}, Run: func(h *Harness) error {
		res, err := h.Fig7()
		if err != nil {
			return err
		}
		h.Table3(res)
		return nil
	}, Spaced: true},
	{Names: []string{"fig8"}, Run: (*Harness).Fig8, Spaced: true},
	{Names: []string{"fig9"}, Run: (*Harness).Fig9, Spaced: true},
	{Names: []string{"fig10"}, Run: func(h *Harness) error { _, err := h.Fig10(); return err }, Spaced: true},
	{Names: []string{"ablations"}, Run: (*Harness).Ablations, Spaced: true},
	{Names: []string{"reliability"}, Run: func(h *Harness) error { _, err := h.Reliability(); return err }, Spaced: true},
	{Names: []string{"tail"}, Run: (*Harness).TailStudy, Spaced: true},
	{Names: []string{"fleet"}, Run: (*Harness).FleetStudy, Spaced: true},
}

// ArtifactNames lists every name Reproduce accepts, in table order,
// ending with "all".
func ArtifactNames() []string {
	var names []string
	for _, a := range Artifacts {
		names = append(names, a.Names...)
	}
	return append(names, "all")
}

// selectArtifacts returns the artifact called name, or every artifact
// for "all".
func selectArtifacts(name string) ([]Artifact, error) {
	if name == "all" {
		return Artifacts, nil
	}
	for _, a := range Artifacts {
		for _, n := range a.Names {
			if n == name {
				return []Artifact{a}, nil
			}
		}
	}
	return nil, fmt.Errorf("unknown artifact %q", name)
}

// Reproduce validates o, then renders the named artifact (or "all" of
// them, in table order) to out. Validation and the name lookup run
// before New loads anything. A run that completes compacts its journal.
func Reproduce(out io.Writer, name string, o Options) error {
	if err := o.Validate(); err != nil {
		return err
	}
	arts, err := selectArtifacts(name)
	if err != nil {
		return err
	}
	h := New(out)
	defer h.Close()
	defer h.Save()
	h.Options = o
	h.Scale = cmp.Or(o.Scale, 1)
	h.Tier = cmp.Or(o.Tier, isim.TierCycle.String())
	h.DB.Tier, _ = isim.ParseTier(h.Tier) // Validate accepted it
	for _, a := range arts {
		if err := a.Run(h); err != nil {
			return err
		}
		if name == "all" && a.Spaced {
			fmt.Fprintln(out)
		}
	}
	// Shrink the journal to one winning record per cell so resumable
	// runs don't accrete attempt history forever.
	h.CompactJournal()
	return nil
}
