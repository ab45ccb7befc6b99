//go:build !race

package local

// scalarPrefetchWindow is the scatter look-ahead of the word and boxed
// planes; see race_on.go.
const scalarPrefetchWindow = prefetchWindow
