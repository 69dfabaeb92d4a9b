/**
 * @file
 * Minimal command-line argument parsing for the examples and tools.
 *
 * Supports `--flag`, `--key value`, and `--key=value` forms plus
 * positional arguments, with typed accessors and defaults. A numeric
 * value that does not parse completely, or that is out of range, is
 * a user error: the typed accessors exit through LIA_FATAL naming
 * the argument. Small by design — just enough for reproducible tool
 * invocations.
 */

#ifndef LIA_BASE_ARGS_HH
#define LIA_BASE_ARGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lia {

/** Parsed command line. */
class ArgParser
{
  public:
    ArgParser(int argc, const char *const *argv);

    /** Whether `--name` appeared (with or without a value). */
    bool has(const std::string &name) const;

    /** String option value or @p fallback. */
    std::string getString(const std::string &name,
                          const std::string &fallback = "") const;

    /** Integer option value, or @p fallback when absent or empty. */
    std::int64_t getInt(const std::string &name,
                        std::int64_t fallback) const;

    /** Floating-point option value, or @p fallback when absent or empty. */
    double getDouble(const std::string &name, double fallback) const;

    /**
     * The @p i-th positional argument as an integer, or @p fallback
     * when there are not that many.
     */
    std::int64_t positionalInt(std::size_t i,
                               std::int64_t fallback) const;

    /**
     * The @p i-th positional argument as a floating-point value, or
     * @p fallback when there are not that many.
     */
    double positionalDouble(std::size_t i, double fallback) const;

    /** Positional arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** The program name (argv[0]). */
    const std::string &program() const { return program_; }

  private:
    std::string program_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
};

} // namespace lia

#endif // LIA_BASE_ARGS_HH
