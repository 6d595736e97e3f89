//go:build amd64

package vecmath

// useAVX2 gates the assembly int8 dot kernel: AVX2 must be present and the
// OS must save/restore YMM state (OSXSAVE + XCR0 bits 1–2).
var useAVX2 = func() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuidex(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if eax, _ := xgetbv0(); eax&6 != 6 {
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	return b&(1<<5) != 0
}()

// cpuidex executes CPUID with the given EAX/ECX arguments.
func cpuidex(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (the XSAVE feature mask).
func xgetbv0() (eax, edx uint32)

// dotInt8AVX2 computes the int32 inner product of a[0:n] and b[0:n] where n
// is a positive multiple of 16, 16 sign-extended int16 lanes at a time
// (VPMOVSXBW + VPMADDWD into int32 accumulators). It only reads its
// pointers; unannotated, every query an ann distSource carries escapes.
//
//go:noescape
func dotInt8AVX2(a, b *int8, n int) int32

// dotInt8 returns the int32 inner product of two int8 code vectors,
// dispatching the 16-aligned prefix to the AVX2 kernel when available and
// finishing the tail (or everything, on pre-AVX2 hardware) in Go.
func dotInt8(a, b []int8) int32 {
	var s int32
	if n := len(a) &^ 15; useAVX2 && n > 0 {
		s = dotInt8AVX2(&a[0], &b[0], n)
		a, b = a[n:], b[n:]
	}
	return s + dotInt8Generic(a, b)
}
