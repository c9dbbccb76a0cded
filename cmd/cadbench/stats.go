package main

import "cadcam"

// cacheReport is the resolution-cache section of the -json report.
type cacheReport struct {
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Invalidations uint64  `json:"invalidations"`
	HitRate       float64 `json:"hit_rate"`
}

// fillCacheReport records the resolution-cache counters of the database the
// micro probes just exercised.
func fillCacheReport(report *jsonReport, db *cadcam.Database) {
	st := db.Stats()
	c := &cacheReport{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Invalidations: st.Invalidations,
	}
	if total := st.Hits + st.Misses; total > 0 {
		c.HitRate = float64(st.Hits) / float64(total)
	}
	report.Cache = c
}
