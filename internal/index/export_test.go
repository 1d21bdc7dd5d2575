package index

// For the XMark tests in package index_test.
var (
	WindowKernel = windowKernel
	CheckMasks   = checkMasks
	CheckBalance = checkBalance
)
