"""Squid-mini: miniature Squid proxy.

Paper traits reproduced:

* comparison-based mapping (Table 1) with only 2 lines of annotation
  (Table 4);
* the Figure 6(c) boolean pattern: anything that is not "on" is
  silently treated as off - even "yes"/"enable" (the largest silent
  violation/overruling column of Tables 5 and 8);
* Figure 6(d): ``sscanf(token, "%i", &i)`` parsing whose result is
  undefined on invalid input;
* Figure 5(c): an occupied ``icp_port`` aborts with the misleading
  "FATAL: Cannot open ICP Port" message;
* case-sensitive strcmp value parsing for the enum directives
  (Table 6: Squid is the one system with a case-sensitive majority).
"""

from __future__ import annotations

from repro.core.accuracy import (
    truth_basic,
    truth_ctrl_dep,
    truth_range,
    truth_semantic,
)
from repro.inject.ar import DirectiveDialect
from repro.systems.base import (
    SAME_AS_NAME,
    FunctionalTest,
    OsDir,
    ParamSpec,
    SubjectSystem,
)
from repro.systems.registry import register

SQUID_MAIN = r"""
// squid-mini
int http_port = 3128;
int icp_port = 3130;
int cache_mem_mb = 256;
int request_body_max_size = 1048576;
int reply_body_max_size = 0;
int readahead_gap_kb = 16;
int pconn_timeout = 120;
int client_lifetime = 86400;
int connect_retry_delay = 150;
int max_filedescriptors = 1024;
int memory_pools = 1;
int half_closed_clients = 0;
int detect_broken_pconn = 0;
int client_db = 1;
int httpd_suppress_version = 0;
int buffered_logs = 0;
int dns_defnames = 0;
int replacement_policy_code = 1;
int mem_policy_code = 1;
int uri_whitespace_code = 1;
char *cache_dir = "/var/cache/squid";
char *coredump_dir = "/var/cache/squid";
char *pid_filename = "/var/run/squid.pid";
char *visible_hostname = "localhost";
char *dns_nameserver = "127.0.0.1";

char *mem_pool;
char *idle_pool;
int memory_pools_limit = 5;
int dns_ok = 0;

int parse_line(char *key, char *value) {
    int n;
    // Booleans in the Figure 6(c) style: everything that is not
    // exactly "on" silently becomes off - including "yes"/"enable".
    if (strcmp(key, "memory_pools") == 0) {
        if (strcasecmp(value, "on") == 0) { memory_pools = 1; }
        else { memory_pools = 0; }
        return 0;
    }
    if (strcmp(key, "half_closed_clients") == 0) {
        if (strcasecmp(value, "on") == 0) { half_closed_clients = 1; }
        else { half_closed_clients = 0; }
        return 0;
    }
    if (strcmp(key, "detect_broken_pconn") == 0) {
        if (strcasecmp(value, "on") == 0) { detect_broken_pconn = 1; }
        else { detect_broken_pconn = 0; }
        return 0;
    }
    if (strcmp(key, "client_db") == 0) {
        if (strcasecmp(value, "on") == 0) { client_db = 1; }
        else { client_db = 0; }
        return 0;
    }
    if (strcmp(key, "httpd_suppress_version_string") == 0) {
        if (strcasecmp(value, "on") == 0) { httpd_suppress_version = 1; }
        else { httpd_suppress_version = 0; }
        return 0;
    }
    // These two use case-SENSITIVE compares (inconsistent on purpose,
    // part of Squid's mixed Table 6 row): "ON" silently means off.
    if (strcmp(key, "buffered_logs") == 0) {
        if (strcmp(value, "on") == 0) { buffered_logs = 1; }
        else { buffered_logs = 0; }
        return 0;
    }
    if (strcmp(key, "dns_defnames") == 0) {
        if (strcmp(value, "on") == 0) { dns_defnames = 1; }
        else { dns_defnames = 0; }
        return 0;
    }
    // Enum directives, case-sensitive, with FATAL on unknown values.
    if (strcmp(key, "cache_replacement_policy") == 0) {
        if (strcmp(value, "lru") == 0) { replacement_policy_code = 1; }
        else if (strcmp(value, "heap") == 0) { replacement_policy_code = 2; }
        else {
            fprintf(stderr, "FATAL: Unknown cache_replacement_policy '%s'\n",
                    value);
            exit(1);
        }
        return 0;
    }
    if (strcmp(key, "memory_replacement_policy") == 0) {
        if (strcmp(value, "lru") == 0) { mem_policy_code = 1; }
        else if (strcmp(value, "heap") == 0) { mem_policy_code = 2; }
        else {
            fprintf(stderr, "FATAL: Unknown memory_replacement_policy '%s'\n",
                    value);
            exit(1);
        }
        return 0;
    }
    if (strcmp(key, "uri_whitespace") == 0) {
        if (strcmp(value, "strip") == 0) { uri_whitespace_code = 1; }
        else if (strcmp(value, "deny") == 0) { uri_whitespace_code = 2; }
        else if (strcmp(value, "allow") == 0) { uri_whitespace_code = 3; }
        else { uri_whitespace_code = 1; }  // silently strip
        return 0;
    }
    // Integers through sscanf %i (Figure 6d): undefined on bad input.
    if (strcmp(key, "http_port") == 0) {
        sscanf(value, "%i", &n);
        http_port = n;
        return 0;
    }
    if (strcmp(key, "icp_port") == 0) {
        sscanf(value, "%i", &n);
        icp_port = n;
        return 0;
    }
    if (strcmp(key, "cache_mem") == 0) {
        sscanf(value, "%i", &n);
        cache_mem_mb = n;
        return 0;
    }
    if (strcmp(key, "request_body_max_size") == 0) {
        sscanf(value, "%i", &n);
        request_body_max_size = n;
        return 0;
    }
    if (strcmp(key, "reply_body_max_size") == 0) {
        sscanf(value, "%i", &n);
        reply_body_max_size = n;
        return 0;
    }
    if (strcmp(key, "readahead_gap") == 0) {
        sscanf(value, "%i", &n);
        readahead_gap_kb = n;
        return 0;
    }
    if (strcmp(key, "pconn_timeout") == 0) {
        sscanf(value, "%i", &n);
        pconn_timeout = n;
        return 0;
    }
    if (strcmp(key, "client_lifetime") == 0) {
        sscanf(value, "%i", &n);
        client_lifetime = n;
        return 0;
    }
    if (strcmp(key, "connect_retry_delay") == 0) {
        sscanf(value, "%i", &n);
        connect_retry_delay = n;
        return 0;
    }
    if (strcmp(key, "memory_pools_limit") == 0) {
        sscanf(value, "%i", &n);
        memory_pools_limit = n;
        return 0;
    }
    if (strcmp(key, "max_filedescriptors") == 0) {
        sscanf(value, "%i", &n);
        if (max_filedescriptors > 65536) {
            max_filedescriptors = 65536;
        }
        max_filedescriptors = n;
        return 0;
    }
    if (strcmp(key, "cache_dir") == 0) {
        cache_dir = value;
        return 0;
    }
    if (strcmp(key, "coredump_dir") == 0) {
        coredump_dir = value;
        return 0;
    }
    if (strcmp(key, "pid_filename") == 0) {
        pid_filename = value;
        return 0;
    }
    if (strcmp(key, "visible_hostname") == 0) {
        visible_hostname = value;
        return 0;
    }
    if (strcmp(key, "dns_nameservers") == 0) {
        dns_nameserver = value;
        return 0;
    }
    return 0;  // unknown directives ignored
}

int read_config(char *path) {
    void *fp = fopen(path, "r");
    if (fp == NULL) {
        fprintf(stderr, "FATAL: Unable to open configuration file: %s\n", path);
        exit(1);
    }
    char *line = fgets(fp);
    while (line != NULL) {
        char *trimmed = str_trim(line);
        if (strlen(trimmed) > 0 && trimmed[0] != '#') {
            char *key = str_token(trimmed, 0);
            char *value = str_token(trimmed, 1);
            if (key != NULL && value != NULL) {
                parse_line(key, value);
            }
        }
        line = fgets(fp);
    }
    fclose(fp);
    return 0;
}

int open_ports() {
    int fd = socket(2, 1, 0);
    if (bind(fd, http_port) != 0) {
        fprintf(stderr, "FATAL: Cannot bind HTTP socket\n");
        exit(1);
    }
    listen(fd, 64);
    if (icp_port > 0) {
        int icp = socket(2, 2, 0);
        if (bind(icp, htons(icp_port)) != 0) {
            // Figure 5(c): misleading, never names the parameter.
            fprintf(stderr, "FATAL: Cannot open ICP Port\n");
            exit(1);
        }
    }
    return 0;
}

int init_cache() {
    // cache_mem is in MBytes; the store arena is allocated in bytes.
    mem_pool = malloc(cache_mem_mb * 1048576);
    if (mem_pool == NULL) {
        mem_pool = malloc(1048576);
    }
    int gap = readahead_gap_kb * 1024;
    char *gap_buf = malloc(gap);
    if (memory_pools != 0) {
        // memory_pools_limit only matters with pooling enabled.
        idle_pool = malloc(memory_pools_limit * 1048576);
    }
    // Swap state lives under cache_dir; a missing directory crashes
    // the rebuild (no check, Squid's storeDirOpenSwapLogs style).
    void *swap = fopen(sprintf("%s/swap.state", cache_dir), "w");
    fwrite_str(swap, "SWAP-LOG v1\n");
    fclose(swap);
    char *body_buf = malloc(request_body_max_size);
    int pt = pconn_timeout;
    if (pt > 1) { pt = 1; }
    sleep(pt);
    void *pid = fopen(pid_filename, "w");
    if (pid != NULL) {
        fwrite_str(pid, "4242\n");
        fclose(pid);
    }
    return 0;
}

int init_dns() {
    if (inet_addr(dns_nameserver) < 0) {
        dns_ok = 0;  // silently disabled: DNS lookups will fail later
        return 0;
    }
    dns_ok = 1;
    return 0;
}

int throttle_retry() {
    if (connect_retry_delay > 0) {
        int ms = connect_retry_delay;
        if (ms > 1000) { ms = 1000; }
        sleep_ms(ms);
    }
    return 0;
}

int serve() {
    char *req = recv_request();
    while (req != NULL) {
        if (strncmp(req, "GET ", 4) == 0) {
            char *url = str_token(req, 1);
            send_response(sprintf("TCP_MISS/200 %s policy=%d",
                                  url, replacement_policy_code));
        } else if (strncmp(req, "POST ", 5) == 0) {
            int body = atoi(str_token(req, 2));
            if (request_body_max_size > 0 && body > request_body_max_size) {
                send_response("413 Request Entity Too Large");
            } else {
                send_response("200 Stored");
            }
        } else if (strncmp(req, "DNS ", 4) == 0) {
            if (dns_ok == 1) {
                send_response(sprintf("DNS OK %s", str_token(req, 1)));
            } else {
                send_response("503 DNS service unavailable");
            }
        } else if (strcmp(req, "MGR info") == 0) {
            send_response(sprintf("mem=%d MB host=%s",
                                  cache_mem_mb, visible_hostname));
        } else {
            send_response("400 Bad Request");
        }
        req = recv_request();
    }
    return 0;
}

int main(int argc, char **argv) {
    if (argc < 2) {
        fprintf(stderr, "usage: squid <config>\n");
        return 2;
    }
    read_config(argv[1]);
    open_ports();
    init_cache();
    init_dns();
    throttle_retry();
    serve();
    return 0;
}
"""

ANNOTATIONS = """
{ @PARSER = parse_line
  @PAR = $key @VAR = $value }
"""

DEFAULT_CONFIG = """\
# squid-mini configuration
http_port 3128
icp_port 0
cache_mem 256
request_body_max_size 1048576
reply_body_max_size 0
readahead_gap 16
pconn_timeout 120
client_lifetime 86400
connect_retry_delay 150
max_filedescriptors 1024
memory_pools_limit 5
memory_pools on
half_closed_clients off
detect_broken_pconn off
client_db on
httpd_suppress_version_string off
buffered_logs on
dns_defnames off
cache_replacement_policy lru
memory_replacement_policy lru
uri_whitespace strip
cache_dir /var/cache/squid
coredump_dir /var/cache/squid
pid_filename /var/run/squid.pid
visible_hostname localhost
dns_nameservers 127.0.0.1
"""

MANUAL = {
    "http_port": "http_port <port>: the HTTP listening port.",
    "icp_port": "icp_port <port>: the ICP (UDP) port; 0 disables ICP.",
    "cache_mem": "cache_mem <MB>: memory cache size in megabytes.",
    "request_body_max_size": "request_body_max_size <bytes>.",
    "reply_body_max_size": "reply_body_max_size <bytes>; 0 is unlimited.",
    "readahead_gap": "readahead_gap <KB>: read-ahead buffer per connection.",
    "pconn_timeout": "pconn_timeout <seconds>.",
    "client_lifetime": "client_lifetime <seconds>.",
    "memory_pools": "memory_pools on|off.",
    "memory_pools_limit": (
        "memory_pools_limit <MB>: idle pool cap. Only used when "
        "memory_pools is on."
    ),
    "half_closed_clients": "half_closed_clients on|off.",
    "detect_broken_pconn": "detect_broken_pconn on|off.",
    "client_db": "client_db on|off.",
    "httpd_suppress_version_string": "httpd_suppress_version_string on|off.",
    "buffered_logs": "buffered_logs on|off.",
    "dns_defnames": "dns_defnames on|off.",
    "cache_replacement_policy": "cache_replacement_policy lru|heap.",
    "memory_replacement_policy": "memory_replacement_policy lru|heap.",
    "uri_whitespace": "uri_whitespace strip|deny|allow.",
    "cache_dir": "cache_dir <path>: on-disk cache directory.",
    "coredump_dir": "coredump_dir <path>.",
    "pid_filename": "pid_filename <path>.",
    "visible_hostname": "visible_hostname <host>.",
    "dns_nameservers": "dns_nameservers <ip>.",
    # connect_retry_delay and max_filedescriptors are undocumented.
}


def _tests() -> list[FunctionalTest]:
    return [
        FunctionalTest(
            name="fetch",
            requests=["GET http://example.com/"],
            oracle=lambda r: len(r) == 1
            and r[0].startswith("TCP_MISS/200 http://example.com/"),
            duration=1.0,
        ),
        FunctionalTest(
            name="post_small",
            requests=["POST /upload 4096"],
            oracle=lambda r: r == ["200 Stored"],
            duration=1.5,
        ),
        FunctionalTest(
            name="dns",
            requests=["DNS example.com"],
            oracle=lambda r: r == ["DNS OK example.com"],
            duration=2.0,
        ),
        FunctionalTest(
            name="mgr_info",
            requests=["MGR info"],
            oracle=lambda r: len(r) == 1 and r[0].startswith("mem="),
            duration=0.5,
        ),
    ]


# (config name, decoder slug, effective variable, extra truth).  The
# renamed variables (cache_mem -> cache_mem_mb etc.) are the paper's
# unit-in-the-name pattern; `sscanf %i` parsing ignores the unit.
_INTS = [
    ("http_port", "int", SAME_AS_NAME,
     (truth_semantic("http_port", "PORT"),)),
    ("icp_port", "int", SAME_AS_NAME,
     (truth_semantic("icp_port", "PORT"),)),
    ("cache_mem", "int", "cache_mem_mb",
     (truth_semantic("cache_mem", "SIZE"),)),
    ("request_body_max_size", "size", SAME_AS_NAME,
     (truth_semantic("request_body_max_size", "SIZE"),)),
    ("reply_body_max_size", "size", SAME_AS_NAME, ()),
    ("readahead_gap", "int", "readahead_gap_kb",
     (truth_semantic("readahead_gap", "SIZE"),)),
    ("pconn_timeout", "int", SAME_AS_NAME,
     (truth_semantic("pconn_timeout", "TIME"),)),
    ("client_lifetime", "int", SAME_AS_NAME, ()),
    ("connect_retry_delay", "int", SAME_AS_NAME,
     (truth_semantic("connect_retry_delay", "TIME"),)),
    ("max_filedescriptors", "int", SAME_AS_NAME,
     (truth_range("max_filedescriptors"),)),
    ("memory_pools_limit", "int", SAME_AS_NAME,
     (truth_semantic("memory_pools_limit", "SIZE"),)),
]

# Figure 6(c) booleans, stored as int flags; the one rename hides the
# "_string" suffix the directive carries but the variable dropped.
_BOOLS = [
    ("memory_pools", SAME_AS_NAME),
    ("half_closed_clients", SAME_AS_NAME),
    ("detect_broken_pconn", SAME_AS_NAME),
    ("client_db", SAME_AS_NAME),
    ("httpd_suppress_version_string", "httpd_suppress_version"),
    ("buffered_logs", SAME_AS_NAME),
    ("dns_defnames", SAME_AS_NAME),
]

# Enum directives deliberately carry NO effective location (var=None):
# their values vanish into case-sensitive strcmp chains that store
# policy *codes*, so silent-violation comparison cannot map them.
_ENUMS = [
    "cache_replacement_policy",
    "memory_replacement_policy",
    "uri_whitespace",
]

_STRS = [
    ("cache_dir", SAME_AS_NAME,
     (truth_semantic("cache_dir", "FILE"),)),
    ("coredump_dir", SAME_AS_NAME, ()),
    ("pid_filename", SAME_AS_NAME,
     (truth_semantic("pid_filename", "FILE"),)),
    ("visible_hostname", SAME_AS_NAME, ()),
    ("dns_nameservers", "dns_nameserver",
     (truth_semantic("dns_nameservers", "IP_ADDRESS"),)),
]

@register("squid")
def build() -> SubjectSystem:
    return SubjectSystem(
        name="squid",
        display_name="Squid",
        description="Miniature Squid with the paper's Squid traits",
        sources={"squid.c": SQUID_MAIN},
        annotations=ANNOTATIONS,
        dialect=DirectiveDialect(),
        config_path="/etc/squid/squid.conf",
        default_config=DEFAULT_CONFIG,
        params=[
            ParamSpec(
                name,
                decode=decode,
                var=var,
                manual=MANUAL.get(name),
                truth=(truth_basic(name, "int"),) + extra,
            )
            for name, decode, var, extra in _INTS
        ]
        + [
            ParamSpec(
                name,
                decode="bool",
                var=var,
                manual=MANUAL.get(name),
                truth=(truth_basic(name, "int"), truth_range(name)),
            )
            for name, var in _BOOLS
        ]
        + [
            ParamSpec(
                name,
                decode="string",
                var=None,
                manual=MANUAL.get(name),
                truth=(truth_basic(name, "string"), truth_range(name)),
            )
            for name in _ENUMS
        ]
        + [
            ParamSpec(
                name,
                decode="string",
                var=var,
                manual=MANUAL.get(name),
                truth=(truth_basic(name, "string"),) + extra,
            )
            for name, var, extra in _STRS
        ],
        tests=_tests(),
        extra_truth=[truth_ctrl_dep("memory_pools_limit", "memory_pools")],
        os_dirs=[OsDir("/var/cache/squid")],
    )
