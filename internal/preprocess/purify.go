// Package preprocess implements the paper's data preprocessing module
// (§5.1): n-gram session profiling with Jaccard similarity, DBSCAN
// clustering, pattern balancing and short-session removal. The
// attribute-based access-control filter of known attacks is not
// reproduced (EXPERIMENTS.md, Known deviations, item 6).
package preprocess

import (
	"math/rand"
	"sort"

	"github.com/ucad/ucad/internal/session"
)

// CleanConfig controls the clustering-based noise removal (§5.1).
type CleanConfig struct {
	// NGram is the gram size for session profiling (paper cites n-gram
	// features; 2 is the default).
	NGram int
	// Eps is the DBSCAN neighborhood radius in Jaccard distance.
	Eps float64
	// MinPts is DBSCAN's core-point threshold (counting the point).
	MinPts int
	// SmallClusterRatio drops clusters smaller than this fraction of the
	// median cluster size ("significantly smaller than the median").
	SmallClusterRatio float64
	// ShortSessionRatio drops sessions shorter than this fraction of
	// their cluster's average length ("too short to reveal the
	// contextual intent").
	ShortSessionRatio float64
}

// DefaultCleanConfig returns the defaults used throughout the
// experiments.
func DefaultCleanConfig() CleanConfig {
	return CleanConfig{
		NGram:             2,
		Eps:               0.6,
		MinPts:            3,
		SmallClusterRatio: 0.25,
		ShortSessionRatio: 0.3,
	}
}

// CleanReport describes what Clean removed and why.
type CleanReport struct {
	Input           int
	Clusters        int
	NoiseDropped    int
	SmallClusters   int
	SmallDropped    int
	ShortDropped    int
	BalancedSampled int // sessions removed by under-sampling
	Output          int
	ClusterSizes    []int
	MedianCluster   int
}

// Clean applies the paper's clustering-based purification to tokenized
// sessions: DBSCAN over n-gram Jaccard similarity, random
// under-sampling of large clusters to the median size, removal of rare
// (small) clusters, and removal of sessions much shorter than their
// cluster's average length. rng drives the under-sampling.
func Clean(sessions []*session.Session, cfg CleanConfig, rng *rand.Rand) ([]*session.Session, CleanReport) {
	rep := CleanReport{Input: len(sessions)}
	if len(sessions) == 0 {
		return nil, rep
	}
	profiles := make([]map[string]struct{}, len(sessions))
	for i, s := range sessions {
		profiles[i] = NGramSet(s.Keys(), cfg.NGram)
	}
	labels := DBSCAN(len(sessions), func(i, j int) float64 {
		return JaccardDistance(profiles[i], profiles[j])
	}, cfg.Eps, cfg.MinPts)

	clusters := make(map[int][]int)
	for i, l := range labels {
		if l == Noise {
			rep.NoiseDropped++
			continue
		}
		clusters[l] = append(clusters[l], i)
	}
	rep.Clusters = len(clusters)
	if len(clusters) == 0 {
		return nil, rep
	}

	sizes := make([]int, 0, len(clusters))
	for _, members := range clusters {
		sizes = append(sizes, len(members))
	}
	sort.Ints(sizes)
	rep.ClusterSizes = sizes
	median := sizes[len(sizes)/2]
	rep.MedianCluster = median

	var kept []*session.Session
	for _, members := range sortedClusters(clusters) {
		// Drop rare-pattern clusters.
		if float64(len(members)) < cfg.SmallClusterRatio*float64(median) {
			rep.SmallClusters++
			rep.SmallDropped += len(members)
			continue
		}
		// Under-sample large clusters to the median size for balance.
		if len(members) > median {
			rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
			rep.BalancedSampled += len(members) - median
			members = members[:median]
		}
		// Drop sessions much shorter than the cluster average.
		var total int
		for _, i := range members {
			total += len(sessions[i].Ops)
		}
		avg := float64(total) / float64(len(members))
		for _, i := range members {
			if float64(len(sessions[i].Ops)) < cfg.ShortSessionRatio*avg {
				rep.ShortDropped++
				continue
			}
			kept = append(kept, sessions[i])
		}
	}
	rep.Output = len(kept)
	return kept, rep
}

// sortedClusters returns cluster member lists in deterministic label
// order so Clean is reproducible for a fixed rng.
func sortedClusters(clusters map[int][]int) [][]int {
	labels := make([]int, 0, len(clusters))
	for l := range clusters {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	out := make([][]int, len(labels))
	for i, l := range labels {
		out[i] = clusters[l]
	}
	return out
}
