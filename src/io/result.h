// ipscope::Result<T, E> — a minimal expected-style sum type.
//
// How the io layer reports failure on bad input: functions return
// Result<Value, Error> (io::StoreError for stores, io::ReadFileError for
// raw file reads) instead of throwing, so every caller branches on the
// error without exception machinery. Deliberately tiny — no monadic combinators, just ok()/value()/
// error() — because call sites here are all immediate branches.
#pragma once

#include <cassert>
#include <utility>
#include <variant>

namespace ipscope {

// [[nodiscard]]: ignoring a Result drops an error on the floor — the
// compiler backs up the errors.discarded-result lint rule.
template <typename T, typename E>
class [[nodiscard]] Result {
 public:
  // Implicit construction from either alternative keeps call sites clean:
  //   return LoadResult{...};   return StoreError{...};
  Result(T value) : v_(std::in_place_index<0>, std::move(value)) {}
  Result(E error) : v_(std::in_place_index<1>, std::move(error)) {}

  bool ok() const { return v_.index() == 0; }
  explicit operator bool() const { return ok(); }

  T& value() & {
    assert(ok());
    return std::get<0>(v_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<0>(v_);
  }
  T&& value() && {
    assert(ok());
    return std::get<0>(std::move(v_));
  }

  E& error() & {
    assert(!ok());
    return std::get<1>(v_);
  }
  const E& error() const& {
    assert(!ok());
    return std::get<1>(v_);
  }

 private:
  std::variant<T, E> v_;
};

}  // namespace ipscope
