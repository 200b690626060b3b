package profiledata

// LegacyV1Footer exposes legacyV1Footer to the external tests, which
// analyze the rebuilt recording through the public drbw API.
var LegacyV1Footer = legacyV1Footer
