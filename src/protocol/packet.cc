#include "protocol/packet.hh"

namespace hmcsim
{

const char *
commandName(Command cmd)
{
    switch (cmd) {
      case Command::Read:
        return "READ";
      case Command::Write:
        return "WRITE";
      case Command::Atomic:
        return "ATOMIC";
    }
    return "?";
}

const char *
requestMixName(RequestMix mix)
{
    switch (mix) {
      case RequestMix::ReadOnly:
        return "ro";
      case RequestMix::WriteOnly:
        return "wo";
      case RequestMix::ReadModifyWrite:
        return "rw";
      case RequestMix::Atomic:
        return "atomic";
    }
    return "?";
}

bool
parseRequestMix(const std::string &name, RequestMix &out)
{
    for (const RequestMix mix :
         {RequestMix::ReadOnly, RequestMix::WriteOnly,
          RequestMix::ReadModifyWrite, RequestMix::Atomic}) {
        if (name == requestMixName(mix)) {
            out = mix;
            return true;
        }
    }
    return false;
}

} // namespace hmcsim
