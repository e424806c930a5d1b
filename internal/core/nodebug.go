//go:build !asyncdebug

package core

// The checked versions are in asyncdebug.go.

func (h *history) setValid(v int64)          { h.validTo.Store(v) }
func checkBelow(what string, v, bound int64) {}
