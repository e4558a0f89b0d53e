package cluster

// Hooks for the external tests in package cluster_test.

// RingRebuilds counts the service's hash-ring rebuilds.
func (s *Service) RingRebuilds() int { return s.rebuilds }

// Live reports whether the router would route to h.
func (h *JobHandle) Live() bool { return h.live() }
