// Package perf names the design set the repository's benchmark measures
// (layerbench's suite-ablation workload and its per-design BTB layers).
package perf

import "repro/internal/experiments"

// BenchDesigns is the design set under measurement: the Figure 11a ablation
// chain (baseline → dedup-only → partition-only → PDede → MT → ME) plus the
// Shotgun comparison point, covering every structurally distinct lookup
// path in the repository.
func BenchDesigns() []experiments.Design {
	designs := experiments.AblationDesigns()
	for _, d := range experiments.ShotgunDesigns() {
		if d.Name == experiments.NameShotgun {
			designs = append(designs, d)
		}
	}
	return designs
}
