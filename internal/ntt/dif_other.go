//go:build !amd64 || purego

package ntt

import "unizk/internal/field"

// Without the assembly kernels every element takes the scalar loop.

func butterfliesX8(x, y, w []field.Element) int { return 0 }

func mulX8(x, w []field.Element) int { return 0 }

func mulConstX8(x []field.Element, c field.Element) int { return 0 }
