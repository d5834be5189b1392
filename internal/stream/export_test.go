package stream

// MaxFrameHeaderBytes exposes the frame header line cap to the
// external test package.
const MaxFrameHeaderBytes = maxFrameHeaderBytes
