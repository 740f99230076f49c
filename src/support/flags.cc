#include "support/flags.hh"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "support/logging.hh"

namespace stm
{

Flag
switchFlag(std::string name, bool *target, std::string help)
{
    return {.name = std::move(name),
            .help = std::move(help),
            .set = [target](const std::string &, std::uint64_t) {
                *target = true;
            }};
}

Flag
textFlag(std::string name, std::string *target, std::string metavar,
         std::string help)
{
    return {.name = std::move(name),
            .kind = Flag::Kind::Text,
            .metavar = std::move(metavar),
            .help = std::move(help),
            .set = [target](const std::string &text, std::uint64_t) {
                *target = text;
            }};
}

Flag
choiceFlag(std::string name, std::string *target,
           std::vector<std::string> choices, std::string help)
{
    Flag flag = textFlag(std::move(name), target, "", std::move(help));
    flag.kind = Flag::Kind::Choice;
    for (const std::string &choice : choices)
        flag.metavar += (flag.metavar.empty() ? "" : "|") + choice;
    flag.choices = std::move(choices);
    return flag;
}

Flag
numberFlag(std::string name, std::string help, std::uint64_t min,
           std::uint64_t max, std::function<void(std::uint64_t)> set)
{
    return {.name = std::move(name),
            .kind = Flag::Kind::Number,
            .metavar = "N",
            .help = std::move(help),
            .min = min,
            .max = max,
            .set = [set = std::move(set)](const std::string &,
                                          std::uint64_t n) { set(n); }};
}

FlagTable::FlagTable(std::vector<std::string> synopsis,
                     std::vector<Flag> flags)
    : synopsis_(std::move(synopsis)), flags_(std::move(flags))
{
}

std::optional<std::vector<std::string>>
FlagTable::parse(int argc, const char *const *argv,
                 std::string *error) const
{
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            error->clear();
            return std::nullopt;
        }
        if (arg.size() < 2 || arg[0] != '-') {
            positional.push_back(arg);
            continue;
        }
        auto flag = std::ranges::find(flags_, arg, &Flag::name);
        if (flag == flags_.end()) {
            *error = "unknown option: " + arg;
            return std::nullopt;
        }
        if (flag->kind == Flag::Kind::Switch) {
            flag->set("", 1);
            continue;
        }
        if (i + 1 >= argc) {
            *error = "option " + arg + " needs a value";
            return std::nullopt;
        }
        std::string value = argv[++i];
        std::optional<std::uint64_t> number = 0;
        if (flag->kind == Flag::Kind::Number)
            number = parseDecimal(value, flag->min, flag->max);
        if (!number || (flag->kind == Flag::Kind::Choice &&
                        std::ranges::find(flag->choices, value) ==
                            flag->choices.end())) {
            std::string want = flag->kind == Flag::Kind::Number
                                   ? strfmt("{}..{}", flag->min, flag->max)
                                   : flag->metavar;
            *error = strfmt("invalid value '{}' for {} (want {})", value,
                            arg, want);
            return std::nullopt;
        }
        flag->set(value, *number);
    }
    return positional;
}

std::vector<std::string>
FlagTable::parseOrExit(int argc, char **argv)
{
    if (argc > 0) {
        std::string_view path = argv[0];
        program_ = path.substr(path.find_last_of('/') + 1);
    }
    std::string error;
    std::optional<std::vector<std::string>> positional =
        parse(argc, argv, &error);
    if (!positional)
        usageError(error);
    return *positional;
}

std::string
FlagTable::usage(std::string_view program) const
{
    std::ostringstream os;
    std::string_view lead = "usage: ";
    for (const std::string &line : synopsis_) {
        os << lead << program << (line.empty() ? "" : " ") << line
           << '\n';
        lead = "       ";
    }
    if (flags_.empty())
        return os.str();
    // Help text starts in one column; a longer flag pushes its help
    // to the next line.
    constexpr std::size_t kColumn = 22;
    os << "\noptions:\n";
    for (const Flag &flag : flags_) {
        std::string head = "  " + flag.name;
        if (!flag.metavar.empty())
            head += " " + flag.metavar;
        if (head.size() + 2 > kColumn)
            os << head << '\n' << std::string(kColumn, ' ');
        else
            os << head << std::string(kColumn - head.size(), ' ');
        for (char c : flag.help)
            os << c << (c == '\n' ? std::string(kColumn, ' ') : "");
        os << '\n';
    }
    return os.str();
}

void
FlagTable::usageError(const std::string &message) const
{
    if (!message.empty())
        std::cerr << program_ << ": " << message << '\n';
    std::cout << usage(program_);
    std::exit(2);
}

} // namespace stm
