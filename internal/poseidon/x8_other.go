//go:build !amd64 || purego

package poseidon

// permuteX8 runs eight independent permutations in place.
func permuteX8(x *lanesX8) { permuteX8Generic(x) }

// permuteLanes runs the rounds of Permute in place.
func permuteLanes(s *lanes) { permuteLanesGeneric(s) }

func initX8() {}
