// Package parity implements the codes the paper compares CPPC against: a
// real (72,64) Hamming SECDED code, its generalization to wider data
// blocks, and the vertical-parity arithmetic of two-dimensional parity
// caches. The k-way interleaved parity CPPC and both parity caches detect
// with is bitops.Parity.
package parity
