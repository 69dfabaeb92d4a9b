#include "base/args.hh"

#include <cerrno>
#include <cstdlib>

#include "base/logging.hh"

namespace lia {

namespace {

/** Parse all of @p text as a base-10 integer; fatal otherwise. */
std::int64_t
parseInt(const std::string &what, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        LIA_FATAL(what, " expects an integer, got '", text, "'");
    if (errno == ERANGE)
        LIA_FATAL(what, " is out of range: '", text, "'");
    return value;
}

/** Parse all of @p text as a floating-point value; fatal otherwise. */
double
parseDouble(const std::string &what, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        LIA_FATAL(what, " expects a number, got '", text, "'");
    if (errno == ERANGE)
        LIA_FATAL(what, " is out of range: '", text, "'");
    return value;
}

} // namespace

ArgParser::ArgParser(int argc, const char *const *argv)
{
    LIA_ASSERT(argc >= 1, "argv must contain the program name");
    program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        const std::string body = arg.substr(2);
        const auto eq = body.find('=');
        if (eq != std::string::npos) {
            options_[body.substr(0, eq)] = body.substr(eq + 1);
            continue;
        }
        // `--key value` when the next token is not another option;
        // otherwise a bare flag.
        if (i + 1 < argc &&
            std::string(argv[i + 1]).rfind("--", 0) != 0) {
            options_[body] = argv[++i];
        } else {
            options_[body] = "";
        }
    }
}

bool
ArgParser::has(const std::string &name) const
{
    return options_.count(name) > 0;
}

std::string
ArgParser::getString(const std::string &name,
                     const std::string &fallback) const
{
    const auto it = options_.find(name);
    return it == options_.end() ? fallback : it->second;
}

std::int64_t
ArgParser::getInt(const std::string &name, std::int64_t fallback) const
{
    const auto it = options_.find(name);
    if (it == options_.end() || it->second.empty())
        return fallback;
    return parseInt("--" + name, it->second);
}

double
ArgParser::getDouble(const std::string &name, double fallback) const
{
    const auto it = options_.find(name);
    if (it == options_.end() || it->second.empty())
        return fallback;
    return parseDouble("--" + name, it->second);
}

std::int64_t
ArgParser::positionalInt(std::size_t i, std::int64_t fallback) const
{
    if (i >= positional_.size())
        return fallback;
    return parseInt("argument " + std::to_string(i + 1),
                    positional_[i]);
}

double
ArgParser::positionalDouble(std::size_t i, double fallback) const
{
    if (i >= positional_.size())
        return fallback;
    return parseDouble("argument " + std::to_string(i + 1),
                       positional_[i]);
}

} // namespace lia
