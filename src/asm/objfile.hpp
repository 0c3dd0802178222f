// Binary object-file format for assembled programs ("BSPO"), so kernels can
// be assembled once with the bsp-asm tool and re-run by bsp-run / bsp-sim
// without carrying the source around.
//
// Layout (all little-endian u32 unless noted):
//   magic "BSPO", version,
//   entry, text_base, text_words, data_base, data_bytes, symbol_count,
//   text words..., data bytes..., symbols (u32 name_len, name, u32 addr)...
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "asm/program.hpp"

namespace bsp {

// Serialises `program` to `os`. Returns false on stream failure.
bool save_object(const Program& program, std::ostream& os);

// Reads a program back; returns nullopt (and fills *error, if given) on a
// malformed image or stream failure.
std::optional<Program> load_object(std::istream& is,
                                   std::string* error = nullptr);

// File-path convenience wrappers.
bool save_object_file(const Program& program, const std::string& path);
std::optional<Program> load_object_file(const std::string& path,
                                        std::string* error = nullptr);

// The tools' one program loader: a BSPO image when `path` ends in ".bspo",
// otherwise assembly source. Returns nullopt (and fills *error, if given)
// when the file cannot be read, the image is malformed or the source does
// not assemble ("PATH:" then one line per assembler error).
std::optional<Program> load_program_file(const std::string& path,
                                         std::string* error = nullptr);

}  // namespace bsp
