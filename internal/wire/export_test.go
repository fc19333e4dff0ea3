package wire

// MaxFramePayload exposes the frame payload bound to the external tests.
const MaxFramePayload = maxFramePayload
