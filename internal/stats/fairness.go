package stats

// JainIndex computes Jain's fairness index over per-entity allocations:
//
//	J = (sum x)^2 / (n * sum x^2)
//
// J = 1 means perfectly equal shares; J = 1/n means one entity holds
// everything. Used to quantify the long-flow fairness claims of §VI-C.
func JainIndex(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, v := range x {
		if v < 0 {
			v = 0
		}
		sum += v
		sumSq += float64(v * v)
	}
	if sumSq == 0 {
		return 1 // all-zero allocations are (vacuously) equal
	}
	return sum * sum / (float64(len(x)) * sumSq)
}
