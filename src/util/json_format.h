// Copyright 2026 The QPSeeker Authors
//
// The JSON text primitives shared by every emitter in the tree (metrics,
// trace, audit log, obs export). Part of qps_observability so the emitters
// that may not link qps_util can use them too.

#ifndef QPS_UTIL_JSON_FORMAT_H_
#define QPS_UTIL_JSON_FORMAT_H_

#include <string>

namespace qps {

/// Escapes `"`, `\` and control characters (as \u00XX) for the body of a
/// JSON string.
std::string JsonEscape(const std::string& s);

/// `%.6g`; non-finite values render as 0 so the document stays valid JSON.
std::string JsonNumber(double v);

}  // namespace qps

#endif  // QPS_UTIL_JSON_FORMAT_H_
