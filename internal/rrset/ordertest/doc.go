// Package ordertest is the differential test harness pinning CELF seed
// selection to the eager argmax oracle. It holds no production code — only
// randomized property tests that, across all six GAP regimes, assert two
// selection paths agree seed-for-seed on the same collection:
//
//   - rrset.SelectMaxCoverageScan, the retained pre-CELF eager argmax scan,
//     as the ground-truth oracle;
//   - rrset.SelectSeeds, the CELF lazy-greedy production path over the
//     collection's coverage index.
//
// The harness lives outside package rrset so it exercises only the
// exported surface — exactly what internal/server and internal/solver
// consume.
package ordertest
